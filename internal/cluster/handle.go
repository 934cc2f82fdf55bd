package cluster

import (
	"sort"
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

	// mu serialises resolve (so a merge is counted before the record
	// that can release Wait) and guards assigned, the peer each slot was
	// last dispatched to, which the persist loop reads for the
	// sweep-state checkpoint.
	mu       sync.Mutex
	assigned []string
}

func newHandle(eh *engine.Handle) *Handle {
	jobs := eh.Jobs()
	h := &Handle{
		Handle:   eh,
		slot:     make(map[string]int, len(jobs)),
		attempts: make([]int, len(jobs)),
		assigned: make([]string, len(jobs)),
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

// setAssigned records which peer a dispatch group went to, for the
// sweep-state checkpoint's shard-assignment map.
func (h *Handle) setAssigned(slots []int, peer string) {
	h.mu.Lock()
	for _, s := range slots {
		h.assigned[s] = peer
	}
	h.mu.Unlock()
}

// snapshotState captures the sweep's persistable state: spec, the
// shard-assignment map, and the job IDs merged so far with a successful
// result (failed/cancelled slots re-dispatch on resume rather than
// resurrecting a maybe-transient error).
func (h *Handle) snapshotState() sweepState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := sweepState{
		Handle: h.ID,
		Spec:   h.Spec,
		Assign: make(map[string]string),
	}
	jobs := h.Jobs()
	for i, r := range h.Results() {
		if r != nil && r.Err == "" && !r.Canceled {
			st.Merged = append(st.Merged, jobs[i].ID())
		}
		if h.assigned[i] != "" {
			st.Assign[jobs[i].ID()] = h.assigned[i]
		}
	}
	sort.Strings(st.Merged)
	return st
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
