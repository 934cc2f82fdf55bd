package httpapi

import (
	"net/http"
	"sync"
	"time"

	"nbticache/internal/engine"
)

// Registry retains sweep handles by ID with bounded, oldest-first
// eviction of finished sweeps, and serves the sweep routes the node
// server and the cluster coordinator server share, so neither the
// eviction policy nor those handlers can diverge between the two
// surfaces. Safe for concurrent use.
type Registry struct {
	max int

	mu      sync.Mutex
	m       map[string]*engine.Handle
	order   []string // submission order, the eviction queue
	evicted uint64
}

// NewRegistry builds a registry retaining up to max finished sweeps.
func NewRegistry(max int) *Registry {
	return &Registry{max: max, m: make(map[string]*engine.Handle)}
}

// Add registers a just-submitted handle and evicts the oldest finished
// sweeps past the bound. Running sweeps are never evicted, so the
// resident count can temporarily exceed the limit under a burst of long
// sweeps; it settles as they finish. The sweep being added is shielded
// even if already finished — a fast all-cache-hit sweep can be "done"
// here, and evicting it would hand the client an ID that instantly
// 404s.
func (r *Registry) Add(h *engine.Handle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := h.ID
	r.m[id] = h
	r.order = append(r.order, id)
	if len(r.m) <= r.max {
		return
	}
	keep := r.order[:0]
	for _, cur := range r.order {
		h, ok := r.m[cur]
		if !ok {
			continue
		}
		if len(r.m) > r.max && cur != id && h.Status().State != "running" {
			delete(r.m, cur)
			r.evicted++
			continue
		}
		keep = append(keep, cur)
	}
	r.order = keep
}

// Lookup resolves a retained handle.
func (r *Registry) Lookup(id string) (*engine.Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.m[id]
	return h, ok
}

// Counts reports the resident handle count and the running eviction
// total, for /metrics.
func (r *Registry) Counts() (retained int, evicted uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m), r.evicted
}

// Serve adapts a per-sweep handler to a route with an {id} wildcard:
// the retained sweep it names is looked up, and an unknown ID answers
// 404.
func (r *Registry) Serve(serve func(http.ResponseWriter, *http.Request, *engine.Handle)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		h, ok := r.Lookup(req.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, "no sweep %q", req.PathValue("id"))
			return
		}
		serve(w, req, h)
	}
}

// Mount serves the retained sweeps on mux: GET /v1/sweeps/{id} reports
// progress and the results resolved so far, GET /v1/sweeps/{id}/events
// streams completions (heartbeat <= 0 selects DefaultEventHeartbeat),
// and DELETE /v1/sweeps/{id} cancels, keeping resolved results.
func (r *Registry) Mount(mux *http.ServeMux, heartbeat time.Duration, met *StreamMetrics) {
	mux.HandleFunc("GET /v1/sweeps/{id}", r.Serve(func(w http.ResponseWriter, _ *http.Request, h *engine.Handle) {
		WriteJSON(w, http.StatusOK, SweepResponse{Status: h.Status(), Jobs: h.Results()})
	}))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", r.Serve(func(w http.ResponseWriter, req *http.Request, h *engine.Handle) {
		StreamSweep(w, req, h, heartbeat, met)
	}))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", r.Serve(func(w http.ResponseWriter, _ *http.Request, h *engine.Handle) {
		h.Cancel()
		WriteJSON(w, http.StatusOK, h.Status())
	}))
}
