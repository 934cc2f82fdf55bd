package engine

import (
	"context"
	"errors"
	"sync"

	"nbticache/internal/obs"
)

// Handle tracks one submitted sweep. It is the one sweep store of the
// system: the engine records its workers' results into it, and the
// cluster coordinator merges shard results into one. The completion
// log, in merge order, holds every resolved slot; a slot → seq index
// points into it, and Status, Results, Wait and the EventsFrom feed all
// read that log. Safe for concurrent use: recorders append while any
// number of clients read Status, block in Wait or follow the feed.
type Handle struct {
	// ID names the sweep ("sweep-N" on a node, "csweep-N" on a
	// coordinator).
	ID string
	// Spec is the submitted spec, verbatim.
	Spec SweepSpec

	jobs   []JobSpec
	ctx    context.Context
	cancel context.CancelFunc

	// span is the sweep's open trace span (nil without a tracer); tsc is
	// its identity, the parent of every per-job (or per-dispatch) span.
	// The span closes when the last slot resolves.
	span *obs.ActiveSpan
	tsc  obs.SpanContext
	// settle, when set, runs once after the last slot resolves and
	// before Wait returns.
	settle   func()
	finished chan struct{}

	mu        sync.Mutex
	log       []SweepEvent
	seq       []int // slot → 1-based Seq of its event in log; 0 while pending
	failed    int
	canceled  int
	cached    int
	timing    SweepTiming
	cancelled bool
	// subs are the live EventsFrom subscribers; subsClosed marks the
	// feed ended (the sweep finished), after which a subscription gets
	// only its backlog.
	subs       map[chan SweepEvent]struct{}
	subsClosed bool
}

// NewHandle builds the store for a sweep of the expanded jobs. Its
// context derives from parent and is cancelled by Cancel or once the
// last slot resolves. span (nil without a tracer) is the sweep's open
// trace span; the handle ends it with the last slot. settle, if non-nil,
// runs after that and before Wait returns.
func NewHandle(parent context.Context, id string, spec SweepSpec, jobs []JobSpec, span *obs.ActiveSpan, settle func()) *Handle {
	ctx, cancel := context.WithCancel(parent)
	return &Handle{
		ID:       id,
		Spec:     spec,
		jobs:     jobs,
		ctx:      ctx,
		cancel:   cancel,
		span:     span,
		tsc:      span.Context(),
		settle:   settle,
		finished: make(chan struct{}),
		log:      make([]SweepEvent, 0, len(jobs)),
		seq:      make([]int, len(jobs)),
		subs:     make(map[chan SweepEvent]struct{}),
	}
}

// Jobs returns the expanded, deduplicated job list (in submission order).
func (h *Handle) Jobs() []JobSpec { return h.jobs }

// TraceID returns the sweep's trace identity ("" without a tracer). The
// HTTP layer serves the recorded span tree for it.
func (h *Handle) TraceID() string { return h.tsc.TraceID }

// SpanContext is the sweep span's identity, the parent for spans the
// sweep's executor records.
func (h *Handle) SpanContext() obs.SpanContext { return h.tsc }

// Context is the sweep's lifetime: done once the sweep is cancelled,
// finished, or its parent context ends.
func (h *Handle) Context() context.Context { return h.ctx }

// Done is closed once every slot has resolved.
func (h *Handle) Done() <-chan struct{} { return h.finished }

// Cancel stops the sweep: slots not yet resolved are recorded as
// cancelled by the executor, and the sweep still finishes (Wait returns)
// once every slot is resolved. Completed results are kept. Cancelling a
// sweep whose every slot has already resolved changes nothing: it stays
// "done".
func (h *Handle) Cancel() {
	h.mu.Lock()
	if len(h.log) < len(h.jobs) {
		h.cancelled = true
	}
	h.mu.Unlock()
	h.cancel()
}

// Cancelled reports whether Cancel was called (a deliberate client
// cancellation, as opposed to a shutdown settling the slots).
func (h *Handle) Cancelled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cancelled
}

// Resolved reports whether slot already holds a result.
func (h *Handle) Resolved(slot int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq[slot] != 0
}

// subBuffer is each subscriber's channel capacity. A consumer that
// falls further behind than this is coalesced: its channel is closed
// and it resyncs via EventsFrom with its last-seen cursor (the backlog
// replays everything it missed). Recording never blocks on a slow
// consumer.
const subBuffer = 128

// Record stores slot's result exactly once — appending it to the log
// and fanning it out to subscribers — and reports whether it was taken.
// The record that resolves the last slot ends the sweep: its span
// closes, the settle hook runs, Wait returns, and the feed ends.
func (h *Handle) Record(slot int, res *JobResult) bool {
	h.mu.Lock()
	if h.seq[slot] != 0 {
		h.mu.Unlock()
		return false
	}
	ev := SweepEvent{Seq: len(h.log) + 1, Job: res}
	h.log = append(h.log, ev)
	h.seq[slot] = ev.Seq
	if t := res.Timing; t != nil {
		h.timing.QueueMs += t.QueueMs
		h.timing.RunMs += t.ResolveMs + t.SimulateMs + t.ProjectMs
		h.timing.PersistMs += t.PersistMs
		h.timing.JobsTimed++
	}
	switch {
	case res.Canceled:
		h.canceled++
	case res.Err != "":
		h.failed++
	case res.Cached:
		h.cached++
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // lagged past its buffer: coalesce
			delete(h.subs, ch)
			close(ch)
		}
	}
	last := len(h.log) == len(h.jobs)
	h.mu.Unlock()
	if last {
		h.cancel() // release the context; the sweep is over
		h.span.End()
		if h.settle != nil {
			h.settle()
		}
		close(h.finished)
		h.mu.Lock()
		h.subsClosed = true
		for ch := range h.subs {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
	return true
}

// SweepEvent is one resolved job slot in a sweep's merge order. Seq is
// the merged-count cursor after this event (1-based, dense): a consumer
// that has seen Seq=k has seen every earlier completion, so k is the
// resume cursor the streaming HTTP surface round-trips as the SSE event
// id / `Last-Event-ID`. Job is the full result, so a coordinator
// consuming a shard's stream merges byte-identical state.
type SweepEvent struct {
	Seq int        `json:"seq"`
	Job *JobResult `json:"job"`
}

// EventsFrom subscribes to the sweep's completion feed at cursor
// `from` (0 replays from the start): completions already logged come
// back immediately as backlog, later ones arrive on live in merge
// order. The channel closes when the sweep finishes — or earlier if the
// subscriber falls more than a buffer behind, in which case its cursor
// is still short of Status().Total and it should resubscribe from that
// cursor to resync. cancel releases the subscription (idempotent, safe
// after the feed ends).
func (h *Handle) EventsFrom(from int) (backlog []SweepEvent, live <-chan SweepEvent, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	from = min(max(from, 0), len(h.log))
	// The log is append-only, so a capped view of it is a stable backlog.
	backlog = h.log[from:len(h.log):len(h.log)]
	ch := make(chan SweepEvent, subBuffer)
	if h.subsClosed {
		close(ch)
		return backlog, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return backlog, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// SweepTiming aggregates the per-job wall-clock decomposition across a
// sweep's resolved slots, in milliseconds summed over JobsTimed jobs
// (divide for per-job means). QueueMs is time spent waiting for a
// worker, RunMs the computation itself (resolve + simulate + project),
// PersistMs the result-cache traversal.
type SweepTiming struct {
	QueueMs   float64 `json:"queue_ms"`
	RunMs     float64 `json:"run_ms"`
	PersistMs float64 `json:"persist_ms"`
	JobsTimed int     `json:"jobs_timed"`
}

// SweepStatus is a point-in-time progress snapshot.
type SweepStatus struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	State     string `json:"state"` // "running" | "done" | "canceled"
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Canceled  int    `json:"canceled"`
	Cached    int    `json:"cached"`
	// TraceID names the sweep's span tree (GET /v1/sweeps/{id}/spans);
	// empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
	// Timing aggregates per-job phase timings over the slots resolved so
	// far; nil when no job reported timing (telemetry disabled).
	Timing *SweepTiming `json:"timing,omitempty"`
}

// Status snapshots progress without blocking.
func (h *Handle) Status() SweepStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := SweepStatus{
		ID:        h.ID,
		Name:      h.Spec.Name,
		State:     "running",
		Total:     len(h.jobs),
		Completed: len(h.log) - h.failed - h.canceled,
		Failed:    h.failed,
		Canceled:  h.canceled,
		Cached:    h.cached,
		TraceID:   h.tsc.TraceID,
	}
	if h.timing.JobsTimed > 0 {
		t := h.timing
		st.Timing = &t
	}
	if len(h.log) == len(h.jobs) {
		st.State = "done"
		if h.cancelled || h.canceled > 0 {
			st.State = "canceled"
		}
	}
	return st
}

// SweepResult is the final outcome of a sweep: one JobResult per
// expanded job, in submission order, failures included in place.
type SweepResult struct {
	ID     string       `json:"id"`
	Name   string       `json:"name,omitempty"`
	Jobs   []*JobResult `json:"jobs"`
	Status SweepStatus  `json:"status"`
}

// Results returns the job results resolved so far (nil slots for jobs
// still pending), in submission order.
func (h *Handle) Results() []*JobResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*JobResult, len(h.jobs))
	for slot, seq := range h.seq {
		if seq != 0 {
			out[slot] = h.log[seq-1].Job
		}
	}
	return out
}

// ErrSweepNotDone is returned by Wait when ctx expires first.
var ErrSweepNotDone = errors.New("engine: sweep not finished")

// Wait blocks until every job has resolved (including cancelled ones)
// or ctx expires, then returns the assembled result.
func (h *Handle) Wait(ctx context.Context) (*SweepResult, error) {
	select {
	case <-h.finished:
	case <-ctx.Done():
		return nil, errors.Join(ErrSweepNotDone, ctx.Err())
	}
	return &SweepResult{ID: h.ID, Name: h.Spec.Name, Jobs: h.Results(), Status: h.Status()}, nil
}
