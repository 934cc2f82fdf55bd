package cluster

import (
	"sync"

	"nbticache/internal/engine"
)

// Handle tracks one sharded sweep: the engine's sweep store, which every
// shard's results merge into — so Status, Results, Wait, Cancel and the
// EventsFrom feed are the engine's, and the HTTP layer and clients see
// one sweep regardless of how many shards ran it — plus the
// coordinator's routing state.
type Handle struct {
	*engine.Handle

	// slot maps a job's content address to its index in Jobs() (Expand
	// deduplicates, so the mapping is one-to-one).
	slot map[string]int
	// attempts counts dispatches per slot; written only by the routing
	// round that owns the slot, so no lock is needed beyond the rounds'
	// own ordering.
	attempts []int

	// mu serialises resolve, so a merge is counted once, before the
	// record that can release Wait.
	mu sync.Mutex
}

func newHandle(eh *engine.Handle) *Handle {
	jobs := eh.Jobs()
	h := &Handle{
		Handle:   eh,
		slot:     make(map[string]int, len(jobs)),
		attempts: make([]int, len(jobs)),
	}
	for i, j := range jobs {
		h.slot[j.ID()] = i
	}
	return h
}

// resolve records slot's result exactly once and reports whether it was
// taken. count, when non-nil, runs first — only for a slot still open —
// so the counters include a merge before the record that can release
// Wait. count runs under h.mu and may take the coordinator's mutex:
// the lock order is handle, then coordinator.
func (h *Handle) resolve(slot int, res *engine.JobResult, count func()) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.Resolved(slot) {
		return false
	}
	if count != nil {
		count()
	}
	return h.Record(slot, res)
}

// unresolved snapshots the slots still waiting for a result.
func (h *Handle) unresolved() []int {
	var out []int
	for i, r := range h.Results() {
		if r == nil {
			out = append(out, i)
		}
	}
	return out
}
