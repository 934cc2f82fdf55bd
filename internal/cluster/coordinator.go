package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbticache/internal/cas"
	"nbticache/internal/engine"
	"nbticache/internal/obs"
)

// Options configures a Coordinator.
type Options struct {
	// Peers are the initial shard base URLs ("http://host:port"). At
	// least one is required; duplicates collapse. Membership is elastic
	// past this seed: peers that fail are removed from the ring (their
	// keys fall to the next owner) but stay known, the health-check
	// loop re-admits them when they answer again, and Join adds new
	// peers at runtime.
	Peers []string
	// Client issues the shard requests; nil selects a default with a
	// 2-minute per-request timeout.
	Client *http.Client
	// Replicas is the ring's virtual-node count per peer; <= 0 means
	// DefaultReplicas.
	Replicas int
	// PollInterval paces the backoff between routing rounds that stall
	// and the pause before reopening a shard stream that delivered
	// nothing new; <= 0 means DefaultPollInterval.
	PollInterval time.Duration
	// MaxForwardBytes caps one forwarded trace's canonical encoding;
	// <= 0 means twice the node upload default. Size it to match the
	// shards' -max-trace-bytes, or large legitimately-admitted traces
	// become unforwardable.
	MaxForwardBytes int64
	// Telemetry is the coordinator's metrics registry and tracer bundle.
	// nil builds a live obs.New(); pass obs.Nop() to run uninstrumented.
	Telemetry *obs.Telemetry
	// Logger receives the coordinator's structured warnings (peer
	// removals, routing stalls); nil discards them.
	Logger *slog.Logger
	// HealthInterval paces the membership health-check loop that probes
	// every known peer — evicted ones included, which is the rejoin
	// path. 0 means DefaultHealthInterval; negative disables the loop
	// (membership then changes only through dispatch failures and Join).
	HealthInterval time.Duration
	// EvictAfterProbes is how many consecutive failed health probes
	// evict a live peer from the ring. One transient timeout or 5xx
	// must never cost a healthy peer its keyspace share, so this is
	// always at least 2; <= 0 means DefaultEvictAfterProbes.
	EvictAfterProbes int
	// OwnerReplicas turns Ring.Owners succession into replicated
	// ownership: every merged job result is written through to this
	// many ring owners, so one node dying loses no cached work. <= 1
	// disables replication (the dispatch owner alone holds the result).
	OwnerReplicas int
	// DataDir persists a checkpoint of each in-flight sweep (its handle
	// ID and spec, a versioned blob under <DataDir>/sweeps) so a
	// restarted coordinator can Resume the sweeps a shutdown orphaned.
	// Empty means memory-only.
	DataDir string
}

// DefaultPollInterval is Options.PollInterval's default.
const DefaultPollInterval = 200 * time.Millisecond

// errTraceUnavailable marks a referenced trace that no live peer holds:
// the jobs referencing it fail permanently instead of bouncing between
// shards.
var errTraceUnavailable = errors.New("cluster: trace unavailable")

// ErrPeerUnavailable wraps errors where the coordinator could not reach
// (or could not get a usable answer from) a peer, as opposed to the
// request itself being wrong. The HTTP layer maps these to 5xx so
// clients retry instead of blaming their spec.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// shardState is one peer's routing bookkeeping, guarded by the
// coordinator mutex. A peer that fails keeps its entry with alive=false
// — that record is what the health loop re-admits on recovery.
type shardState struct {
	alive bool
	// probeFails counts consecutive failed health probes; eviction
	// waits for evictAfter of them, so a single transient timeout or
	// 5xx never costs a healthy peer its ring share.
	probeFails int
	routed     uint64
	// retried counts jobs dispatched to this peer as a re-route (the
	// job had already been dispatched elsewhere).
	retried uint64
	merged  uint64
}

// Coordinator shards sweeps across nbtiserved peers: it expands a
// SweepSpec locally, assigns each job to the consistent-hash owner of
// its content address, forwards any referenced uploaded traces to the
// owning shard on demand, submits one sub-sweep per shard, merges the
// per-shard results into a single Handle, and re-routes jobs from a
// failed peer to the next ring owner. It is safe for concurrent use.
type Coordinator struct {
	client     *shardClient
	poll       time.Duration
	health     time.Duration
	evictAfter int
	replicas   int // owner-replication factor (<= 1: no replication)
	tel        *obs.Telemetry
	log        *slog.Logger
	met        coordMetrics

	lifeCtx  context.Context
	lifeStop context.CancelFunc
	wg       sync.WaitGroup
	closed   atomic.Bool
	seq      atomic.Uint64

	// stateStore persists one versioned sweep-state blob per in-flight
	// sweep (nil without Options.DataDir).
	stateStore cas.Store

	// forwardSlots is a semaphore over in-flight trace forwards;
	// replicaSlots bounds replica write-throughs the same way.
	forwardSlots chan struct{}
	replicaSlots chan struct{}

	mu     sync.Mutex
	ring   *Ring
	shards map[string]*shardState

	sweepsTotal     atomic.Uint64
	jobsRouted      atomic.Uint64
	jobsRetried     atomic.Uint64
	jobsMerged      atomic.Uint64
	jobsFailed      atomic.Uint64
	tracesForwarded atomic.Uint64
	peerFailures    atomic.Uint64

	ringJoins            atomic.Uint64
	ringRejoins          atomic.Uint64
	replicaWrites        atomic.Uint64
	replicaWriteFailures atomic.Uint64
	replicaReads         atomic.Uint64
	sweepsResumed        atomic.Uint64

	// Dataplane counters: shard streams opened (reopens included) and
	// job results merged off them.
	streamsOpened  atomic.Uint64
	eventsStreamed atomic.Uint64
}

// New builds a coordinator over the given peers. The peers are not
// contacted here; an unreachable peer surfaces on the first sweep that
// routes to it (its jobs re-route to the next ring owner).
func New(o Options) (*Coordinator, error) {
	peers := make([]string, 0, len(o.Peers))
	seen := make(map[string]bool)
	for _, raw := range o.Peers {
		p, err := normalizePeer(raw)
		if err != nil {
			if strings.TrimSpace(raw) == "" {
				continue
			}
			return nil, err
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	if o.PollInterval <= 0 {
		o.PollInterval = DefaultPollInterval
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	if o.EvictAfterProbes <= 0 {
		o.EvictAfterProbes = DefaultEvictAfterProbes
	}
	if o.EvictAfterProbes < 2 {
		// A single failed probe is indistinguishable from one dropped
		// packet; eviction below two consecutive failures would churn
		// the ring on noise.
		o.EvictAfterProbes = 2
	}
	if o.Telemetry == nil {
		o.Telemetry = obs.New()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var stateStore cas.Store
	if o.DataDir != "" {
		var err error
		stateStore, err = cas.OpenDisk(filepath.Join(o.DataDir, "sweeps"), cas.Limits{})
		if err != nil {
			return nil, fmt.Errorf("cluster: opening sweep-state dir: %w", err)
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		client:       newShardClient(o.Client, o.MaxForwardBytes),
		poll:         o.PollInterval,
		health:       o.HealthInterval,
		evictAfter:   o.EvictAfterProbes,
		replicas:     o.OwnerReplicas,
		tel:          o.Telemetry,
		log:          o.Logger,
		lifeCtx:      ctx,
		lifeStop:     stop,
		stateStore:   stateStore,
		ring:         NewRing(o.Replicas, peers...),
		shards:       make(map[string]*shardState, len(peers)),
		forwardSlots: make(chan struct{}, maxConcurrentForwards),
		replicaSlots: make(chan struct{}, maxConcurrentReplicas),
	}
	for _, p := range peers {
		c.shards[p] = &shardState{alive: true}
	}
	c.registerMetrics()
	if c.health > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// normalizePeer canonicalises one peer base URL the way New always has:
// trimmed, no trailing slash, http(s) scheme with a host.
func normalizePeer(p string) (string, error) {
	p = strings.TrimRight(strings.TrimSpace(p), "/")
	u, err := url.Parse(p)
	if p == "" || err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("cluster: peer %q is not an http(s) base URL", p)
	}
	return p, nil
}

// Telemetry exposes the coordinator's telemetry bundle, so the HTTP
// layer can serve its registry and tracer.
func (c *Coordinator) Telemetry() *obs.Telemetry { return c.tel }

// Close cancels every in-flight sweep and waits for their routing
// goroutines to drain. Close is idempotent; Submit after Close fails.
func (c *Coordinator) Close() {
	// The mutex orders this Swap against Submit's locked closed-check +
	// wg.Add pair: any Submit that observed closed=false has already
	// registered its routing goroutine by the time we can reach Wait,
	// so Close never returns with a sweep still running (and Add never
	// races a completed Wait).
	c.mu.Lock()
	already := c.closed.Swap(true)
	c.mu.Unlock()
	if already {
		return
	}
	c.lifeStop()
	c.wg.Wait()
	if c.stateStore != nil {
		// The routing loops have drained: every interrupted sweep's
		// checkpoint is on disk for the next coordinator's Resume.
		_ = c.stateStore.Close()
	}
}

// Peers lists the configured peers, sorted.
func (c *Coordinator) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.shards))
	for p := range c.shards {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// OwnerOf returns the live peer owning a content address (a job or
// trace ID), or false when every peer has failed.
func (c *Coordinator) OwnerOf(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owner(key)
}

func (c *Coordinator) ringSnapshot() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Clone()
}

// ringLen reads the live-peer count without cloning the ring.
func (c *Coordinator) ringLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Len()
}

// failPeer removes a peer from the ring after a transport-level (or
// 5xx) failure on the dispatch path; its keyspace share falls to the
// next ring owners so the routing loop can make progress immediately.
// The peer stays known: the health-check loop re-admits it the moment
// it answers a probe again.
func (c *Coordinator) failPeer(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.shards[peer]; st != nil && st.alive {
		st.alive = false
		st.probeFails = 0
		c.mutateRing(ringRemove, peer)
		c.peerFailures.Add(1)
		c.log.Warn("removing failed peer from ring",
			"peer", peer, "peers_alive", c.ring.Len())
	}
}

// Submit expands the sweep, verifies every referenced uploaded trace is
// held by some live peer, and starts the routing loop, returning the
// merged handle immediately. ctx bounds expansion and the trace check
// only; the sweep's own lifetime is governed by the coordinator (Close)
// and the handle (Cancel).
func (c *Coordinator) Submit(ctx context.Context, spec engine.SweepSpec) (*Handle, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("cluster: coordinator closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	// Mirror the engine's submit-time trace validation: rejecting a
	// sweep whose workload no shard holds beats failing its jobs one by
	// one mid-flight.
	seen := make(map[string]bool)
	for _, j := range jobs {
		if j.TraceID == "" || seen[j.TraceID] {
			continue
		}
		seen[j.TraceID] = true
		if _, _, found, err := c.locateTrace(ctx, j.TraceID); !found {
			if err != nil {
				// Some peer could not be checked: this is the cluster's
				// problem, not a bad reference from the client.
				// Both %w: callers match ErrPeerUnavailable for the retry
				// decision and the cause (e.g. context.DeadlineExceeded)
				// for diagnosis.
				return nil, fmt.Errorf("%w: cannot verify trace %q: %w", ErrPeerUnavailable, j.TraceID, err)
			}
			return nil, fmt.Errorf("cluster: unknown trace %q (upload it first)", j.TraceID)
		}
	}
	// The sweep's root span: it joins the submitter's trace when ctx
	// carries one (a tracing client sent traceparent) and roots a new
	// trace otherwise. Every dispatch span — and, across the HTTP hop,
	// every shard-side engine span — descends from it, which is what lets
	// the spans endpoint stitch one tree for the whole distributed sweep.
	id := fmt.Sprintf("csweep-%d", c.seq.Add(1))
	_, span := c.tel.Tracer.StartSpan(ctx, "coordinator.sweep",
		"sweep_id", id, "jobs", itoa(len(jobs)))
	h := newHandle(engine.NewHandle(c.lifeCtx, id, spec, jobs, span, nil))
	if err := c.start(h); err != nil {
		return nil, err
	}
	return h, nil
}

// start registers a sweep's routing loop inside Close's barrier and
// runs it.
func (c *Coordinator) start(h *Handle) error {
	c.mu.Lock()
	if c.closed.Load() {
		// Close won the race since the caller's check; registering a
		// routing goroutine now would slip past its Wait.
		c.mu.Unlock()
		h.Cancel()
		return fmt.Errorf("cluster: coordinator closed")
	}
	c.wg.Add(1)
	c.mu.Unlock()
	c.sweepsTotal.Add(1)
	go c.run(h)
	return nil
}

// Sweep submits a sweep and blocks until the merged result is complete
// (per-job failures are isolated, never aborting the batch).
func (c *Coordinator) Sweep(ctx context.Context, spec engine.SweepSpec) (*engine.SweepResult, error) {
	h, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		h.Cancel()
		return nil, err
	}
	return res, nil
}

// maxStalledRounds bounds routing rounds that neither resolve a job
// nor shrink the ring (every shard answering "not right now"): the
// loop backs off exponentially between such rounds — PollInterval×2,
// ×4, …,
// about 12 seconds in total at the default cadence, enough for an
// upload-gate or store-full condition to clear — and fails the jobs,
// never the peers, once the budget is spent.
const maxStalledRounds = 5

// run is one sweep's routing loop: group unresolved jobs by ring owner,
// dispatch the groups concurrently, and repeat with the survivors'
// ring until every slot resolves. Re-dispatch is the one recovery path:
// a slot left unresolved by a peer failure, an evicted sub-sweep or a
// coordinator restart goes to its current ring owner, whose engine
// answers a job it already holds from its result cache, or joins the
// run already in flight, without simulating again. Re-dispatch rounds
// follow either a peer failure (the ring shrinks, so those rounds are
// bounded by the peer count) or a round that resolved nothing, such as
// a transient shard refusal (bounded by maxStalledRounds with a backoff
// between attempts).
func (c *Coordinator) run(h *Handle) {
	defer c.wg.Done()
	// The checkpoint is written once, now, and settled once, on return.
	defer c.checkpoint(h)()
	ctx := h.Context()
	jobs := h.Jobs()
	stalled := 0
	for ctx.Err() == nil {
		pending := h.unresolved()
		if len(pending) == 0 {
			return
		}
		ring := c.ringSnapshot()
		if ring.Len() == 0 {
			c.failSlots(h, pending, errors.New("cluster: no live shards"))
			return
		}
		groups := make(map[string][]int)
		for _, slot := range pending {
			owner, _ := ring.Owner(jobs[slot].ID())
			groups[owner] = append(groups[owner], slot)
		}
		doneBefore := h.Status()
		var wg sync.WaitGroup
		for peer, slots := range groups {
			wg.Add(1)
			go func(peer string, slots []int) {
				defer wg.Done()
				c.dispatch(h, peer, slots)
			}(peer, slots)
		}
		wg.Wait()
		after := h.Status()
		progressed := after.Completed+after.Failed+after.Canceled >
			doneBefore.Completed+doneBefore.Failed+doneBefore.Canceled
		if progressed || c.ringLen() < ring.Len() {
			stalled = 0
			continue
		}
		if stalled++; stalled > maxStalledRounds {
			c.failSlots(h, h.unresolved(), fmt.Errorf("cluster: no progress after %d rounds (shards busy or refusing)", stalled))
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.poll * (1 << stalled)):
		}
	}
	// Cancelled (handle or coordinator shutdown): settle the rest.
	for _, slot := range h.unresolved() {
		spec := jobs[slot]
		h.resolve(slot, &engine.JobResult{
			ID: spec.ID(), Spec: spec,
			Err: context.Canceled.Error(), Canceled: true,
		}, nil)
	}
}

// dispatch routes one group of jobs to its owning shard: forward any
// referenced traces the shard is missing, submit the sub-sweep, follow
// its completion stream, and merge results into the handle as they
// resolve. Slots it leaves unmerged stay unresolved, and the routing
// loop re-dispatches them on the next round's ring.
func (c *Coordinator) dispatch(h *Handle, peer string, slots []int) {
	if c.met.dispatch != nil {
		start := time.Now()
		defer func() { c.met.dispatch.Observe(time.Since(start).Seconds()) }()
	}
	ctx := h.Context()
	var span *obs.ActiveSpan
	if sc := h.SpanContext(); sc.Valid() {
		// The dispatch span parents the shard's engine spans: the derived
		// context carries it into every shard request, where doJSON
		// injects it as the traceparent header.
		ctx, span = c.tel.Tracer.StartSpan(obs.ContextWith(ctx, sc),
			"coordinator.dispatch", "peer", peer, "sweep_id", h.ID, "jobs", itoa(len(slots)))
	}
	subID, slots := c.submitGroup(ctx, h, peer, slots)
	// The span covers trace forwarding and the submit; the shard's
	// engine.sweep span covers the run. Ending it before the stream can
	// merge the sweep's last result means a sweep never reports done
	// while its span tree still lacks a dispatch span.
	span.End()
	if subID != "" {
		c.follow(ctx, h, peer, subID, slots)
	}
}

// submitGroup makes every uploaded trace the group references resident
// on the shard, then submits the group as one sub-sweep. It returns the
// sub-sweep's ID, or "" when nothing was submitted, and the slots the
// sub-sweep carries: jobs whose trace cannot be placed fail here.
func (c *Coordinator) submitGroup(ctx context.Context, h *Handle, peer string, slots []int) (string, []int) {
	jobs := h.Jobs()
	need := make(map[string]bool)
	for _, s := range slots {
		if id := jobs[s].TraceID; id != "" {
			need[id] = true
		}
	}
	for id := range need {
		_, found, err := c.client.traceInfo(ctx, peer, id)
		if err == nil && !found {
			err = c.forwardTrace(ctx, peer, id)
		}
		switch {
		case err == nil:
		case errors.Is(err, errTraceUnavailable), isPermanent(err):
			// The trace is gone everywhere (or the shard rejects it):
			// re-routing cannot help the jobs that reference it.
			var bad, rest []int
			for _, s := range slots {
				if jobs[s].TraceID == id {
					bad = append(bad, s)
				} else {
					rest = append(rest, s)
				}
			}
			c.failSlots(h, bad, err)
			slots = rest
		case isTransient(err):
			// A healthy shard saying "not right now" (upload gate,
			// full trace store): leave the slots pending for the next
			// backoff round instead of condemning the peer.
			return "", nil
		default:
			if ctx.Err() == nil {
				c.failPeer(peer)
			}
			return "", nil
		}
	}
	if len(slots) == 0 {
		return "", nil
	}

	group := make([]engine.JobSpec, len(slots))
	for i, s := range slots {
		group[i] = jobs[s]
	}
	sub, err := c.client.submit(ctx, peer, engine.SweepSpec{Name: h.ID, Jobs: group})
	if err != nil {
		switch {
		case ctx.Err() != nil:
		case isTransient(err): // pending; the routing loop backs off and retries
		case isPermanent(err) && strings.Contains(err.Error(), "unknown trace"):
			// A direct DELETE on the shard can land between our
			// residency probe and this submit. The trace may still be
			// resident elsewhere, so leave the slots pending: the next
			// round re-probes and re-forwards (and fails them through
			// errTraceUnavailable if it is truly gone everywhere).
		case isPermanent(err):
			c.failSlots(h, slots, err)
		default:
			c.failPeer(peer)
		}
		return "", nil
	}
	// Routed/retried count accepted dispatches only — a group turned
	// back before the sub-sweep submitted (trace-forward stall, gate
	// refusal) reached no shard, and counting it would let a few
	// stalled rounds inflate the counters past the job count.
	var retried int
	for _, s := range slots {
		h.attempts[s]++
		if h.attempts[s] > 1 {
			retried++
		}
	}
	c.jobsRouted.Add(uint64(len(slots)))
	c.jobsRetried.Add(uint64(retried))
	c.mu.Lock()
	if st := c.shards[peer]; st != nil {
		st.routed += uint64(len(slots))
		st.retried += uint64(retried)
	}
	c.mu.Unlock()
	return sub.ID, slots
}

// follow reads a submitted sub-sweep's completion stream to its done
// frame, merging events the moment they arrive, so sweep latency is the
// shards' compute time. A severed stream reopens at its cursor — at
// once the first time, then after a PollInterval pause whenever the
// previous stream delivered nothing new. A stream that cannot be opened
// is classified like any other shard answer.
func (c *Coordinator) follow(ctx context.Context, h *Handle, peer, subID string, slots []int) {
	cursor := 0
	for reopens := 0; ; reopens++ {
		next, done, err := c.streamSubSweep(ctx, h, peer, subID, cursor)
		var se *statusError
		switch {
		case done:
			return
		case ctx.Err() != nil:
			c.cancelRemote(peer, subID)
			return
		case err == nil: // severed mid-sweep: reopen below
		case errors.As(err, &se) && se.Code == http.StatusNotFound,
			isTransient(err):
			// Pending: the next round re-dispatches the unmerged slots.
			// A 404 means the sub-sweep finished and the shard's
			// retention evicted it before the stream reopened; the
			// owner's result cache then answers the re-dispatch.
			return
		case isPermanent(err):
			c.failSlots(h, slots, err) // resolved slots are screened by resolve's exactly-once check
			return
		default:
			c.failPeer(peer)
			return
		}
		if reopens > 0 && next == cursor {
			select {
			case <-ctx.Done():
				c.cancelRemote(peer, subID)
				return
			case <-time.After(c.poll):
			}
		}
		cursor = next
	}
}

// streamSubSweep follows one shard sub-sweep's completion stream from
// cursor `from`, merging job events into the handle as they arrive, and
// returns the cursor it reached. done reports that the sub-sweep reached
// a terminal state (the `done` frame); otherwise err is the failure to
// open the stream, or nil when an open stream was severed (or the sweep
// cancelled).
func (c *Coordinator) streamSubSweep(ctx context.Context, h *Handle, peer, subID string, from int) (cursor int, done bool, err error) {
	cursor = from
	es, err := c.client.openEvents(ctx, peer, subID, from)
	if err != nil {
		return cursor, false, err
	}
	defer es.Close()
	c.streamsOpened.Add(1)
	for {
		frame, err := es.next()
		if err != nil {
			return cursor, false, nil
		}
		switch frame.Event {
		case "job":
			if frame.HasID {
				cursor = frame.ID
			}
			ev, err := frame.JobEvent()
			if err != nil || ev.Job == nil || ev.Job.Canceled {
				// A shard-side cancellation is not an answer (the slot
				// stays unresolved and re-routes); a malformed frame is
				// skipped — the routing loop re-dispatches whatever the
				// stream left unresolved.
				continue
			}
			if slot, ok := h.slot[ev.Job.ID]; ok {
				c.mergeResult(h, slot, peer, ev.Job)
			}
		case "done":
			if st, err := frame.DoneStatus(); err == nil && st.State != "running" {
				return cursor, true, nil
			}
		}
	}
}

// failSlots settles slots with a permanent per-job error (the engine's
// error-isolation contract: failures never abort the sweep).
func (c *Coordinator) failSlots(h *Handle, slots []int, err error) {
	for _, s := range slots {
		spec := h.Jobs()[s]
		h.resolve(s, &engine.JobResult{ID: spec.ID(), Spec: spec, Err: err.Error()},
			func() { c.jobsFailed.Add(1) })
	}
}

// cancelRemote best-effort-cancels a shard sub-sweep whose merged sweep
// is being cancelled, so abandoned jobs stop occupying the shard's
// worker pool.
func (c *Coordinator) cancelRemote(peer, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = c.client.cancelSweep(ctx, peer, id)
}

// locateTrace finds a live peer holding an uploaded trace: the ring
// owner first (where coordinator-routed uploads land), then every other
// live peer. Peers that fail the probe are skipped, not condemned — a
// liveness verdict from a read probe would be too eager — but the last
// probe failure is returned alongside found=false, so a caller can
// distinguish "no peer has it" (every probe answered 404) from "could
// not check" and not blame the client for a transient blip.
func (c *Coordinator) locateTrace(ctx context.Context, id string) (peer string, info engine.TraceInfo, found bool, err error) {
	cands := c.traceCandidates(id)
	if len(cands) == 0 {
		// An empty ring proves nothing about the trace: the data may
		// well exist on the unreachable shards.
		return "", engine.TraceInfo{}, false, fmt.Errorf("%w: no live shards", ErrPeerUnavailable)
	}
	var probeErr error
	for _, p := range cands {
		info, ok, err := c.client.traceInfo(ctx, p, id)
		if err != nil {
			if ctx.Err() != nil {
				return "", engine.TraceInfo{}, false, err
			}
			probeErr = fmt.Errorf("probing %s: %w", p, err)
			continue
		}
		if ok {
			return p, info, true, nil
		}
	}
	return "", engine.TraceInfo{}, false, probeErr
}

// traceCandidates orders the live peers for a trace lookup in ring
// succession order from the trace's position: the owner (where
// coordinator-routed uploads land) first, then its fallbacks.
func (c *Coordinator) traceCandidates(id string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owners(id, c.ring.Len())
}

// maxConcurrentForwards bounds trace forwards in flight across all
// sweeps: each buffers a full canonical encoding for the download and
// re-upload, so an ungated fan-out would multiply tens of MiB per
// dispatch goroutine.
const maxConcurrentForwards = 4

// forwardTrace copies an uploaded trace to target from whichever live
// peer holds it, preserving the content address (the canonical binary
// bytes are re-admitted, so the destination re-derives the same ID).
func (c *Coordinator) forwardTrace(ctx context.Context, target, id string) error {
	ctx, span := c.tel.Tracer.StartSpan(ctx, "coordinator.forward_trace",
		"trace_id", id, "target", target)
	defer span.End()
	select {
	case c.forwardSlots <- struct{}{}:
		defer func() { <-c.forwardSlots }()
	case <-ctx.Done():
		return ctx.Err()
	}
	for _, src := range c.traceCandidates(id) {
		if src == target {
			continue
		}
		blob, found, err := c.client.traceContent(ctx, src, id)
		if err != nil || !found {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // missing or unreachable there; try the next holder
		}
		up, err := c.client.uploadTrace(ctx, target, blob)
		if err != nil {
			return err
		}
		if up.ID != id {
			return fmt.Errorf("cluster: trace %s re-addressed as %s on %s", id, up.ID, target)
		}
		c.tracesForwarded.Add(1)
		return nil
	}
	return fmt.Errorf("%w: %q not held by any live peer", errTraceUnavailable, id)
}

// ShardStats is one peer's routing counters.
type ShardStats struct {
	Peer  string `json:"peer"`
	Alive bool   `json:"alive"`
	// Routed counts job dispatches accepted by this peer; Retried
	// counts the ones that re-dispatched an already-routed job (a
	// re-route after a peer failure, or a retry after a transient
	// refusal); Merged counts job results merged from this peer.
	Routed  uint64 `json:"routed"`
	Retried uint64 `json:"retried"`
	Merged  uint64 `json:"merged"`
}

// Stats is a snapshot of the coordinator counters, served by /metrics
// in coordinator mode. JobsRouted counts every accepted dispatch of a
// job to a shard and JobsRetried the ones beyond a job's first, so
// JobsRouted - JobsRetried equals the number of distinct jobs
// dispatched; a fully merged sweep contributes exactly its job count
// to JobsMerged.
type Stats struct {
	Peers           int          `json:"peers"`
	AlivePeers      int          `json:"alive_peers"`
	SweepsTotal     uint64       `json:"sweeps_total"`
	JobsRouted      uint64       `json:"jobs_routed"`
	JobsRetried     uint64       `json:"jobs_retried"`
	JobsMerged      uint64       `json:"jobs_merged"`
	JobsFailed      uint64       `json:"jobs_failed"`
	TracesForwarded uint64       `json:"traces_forwarded"`
	PeerFailures    uint64       `json:"peer_failures"`
	Shards          []ShardStats `json:"shards"`

	// Elastic-membership and HA counters. RingJoins counts new peers
	// admitted at runtime, RingRejoins health-loop re-admissions of a
	// previously evicted peer. ReplicaWrites/ReplicaWriteFailures count
	// replicated result write-throughs; ReplicaReads counts job reads
	// served by a non-primary ring owner. SweepsResumed counts sweeps a
	// restarted coordinator picked back up.
	RingJoins            uint64 `json:"ring_joins"`
	RingRejoins          uint64 `json:"ring_rejoins"`
	ReplicaWrites        uint64 `json:"replica_writes"`
	ReplicaWriteFailures uint64 `json:"replica_write_failures"`
	ReplicaReads         uint64 `json:"replica_reads"`
	SweepsResumed        uint64 `json:"sweeps_resumed"`

	// Dataplane counters. StreamsOpened counts shard completion streams
	// opened (a reopen after a sever counts again), EventsStreamed the
	// job results merged off them.
	StreamsOpened  uint64 `json:"streams_opened"`
	EventsStreamed uint64 `json:"events_streamed"`
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	shards := make([]ShardStats, 0, len(c.shards))
	alive := 0
	for p, st := range c.shards {
		if st.alive {
			alive++
		}
		shards = append(shards, ShardStats{
			Peer: p, Alive: st.alive,
			Routed: st.routed, Retried: st.retried, Merged: st.merged,
		})
	}
	total := len(c.shards)
	c.mu.Unlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].Peer < shards[j].Peer })
	return Stats{
		Peers:           total,
		AlivePeers:      alive,
		SweepsTotal:     c.sweepsTotal.Load(),
		JobsRouted:      c.jobsRouted.Load(),
		JobsRetried:     c.jobsRetried.Load(),
		JobsMerged:      c.jobsMerged.Load(),
		JobsFailed:      c.jobsFailed.Load(),
		TracesForwarded: c.tracesForwarded.Load(),
		PeerFailures:    c.peerFailures.Load(),
		Shards:          shards,

		RingJoins:            c.ringJoins.Load(),
		RingRejoins:          c.ringRejoins.Load(),
		ReplicaWrites:        c.replicaWrites.Load(),
		ReplicaWriteFailures: c.replicaWriteFailures.Load(),
		ReplicaReads:         c.replicaReads.Load(),
		SweepsResumed:        c.sweepsResumed.Load(),

		StreamsOpened:  c.streamsOpened.Load(),
		EventsStreamed: c.eventsStreamed.Load(),
	}
}
