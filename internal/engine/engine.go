package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/cas"
	"nbticache/internal/core"
	"nbticache/internal/obs"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// Options configures an Engine. The zero value is usable: it selects a
// GOMAXPROCS-sized pool, the calibrated default aging model and energy
// technology, and reporting-quality trace generation.
type Options struct {
	// Workers bounds the pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Model is the aging characterisation; nil builds the default
	// 45nm model.
	Model *aging.Model
	// Tech is the energy model; the zero value means power.DefaultTech().
	Tech power.Tech
	// Gen maps a geometry to trace-generation parameters; nil means
	// workload.DefaultGenParams. The experiment suite passes its
	// quality-scaled variant here.
	Gen func(cache.Geometry) workload.GenParams
	// MaxStoredTraces bounds the uploaded-trace store (AddTrace fails
	// with ErrTraceStoreFull past it); <= 0 means
	// DefaultMaxStoredTraces (an unbounded store is not expressible).
	MaxStoredTraces int
	// DataDir persists the result cache and uploaded-trace store to
	// disk (content-addressed blobs under <DataDir>/jobs and
	// <DataDir>/traces) so a restarted engine serves previously
	// simulated jobs and previously uploaded traces without redoing the
	// work. Empty means memory-only — exactly the pre-persistence
	// behaviour. The directory is created if missing; New fails fast if
	// it cannot be written.
	DataDir string
	// MaxCachedResults bounds the job-result cache (oldest results are
	// evicted past it); <= 0 means DefaultMaxCachedResults.
	MaxCachedResults int
	// Telemetry is the engine's recording surface: job-phase latency
	// histograms, the Stats mirror on /metrics, per-job sweep spans, and
	// blob-store latencies all land here. Nil builds a live obs.New()
	// bundle (every engine is observable by default); pass obs.Nop() for
	// a no-op recorder that drops every observation. Per-job phase
	// timing (JobResult.Timing, sweep-status aggregates) is a core
	// result field and stays on either way.
	Telemetry *obs.Telemetry
}

// DefaultMaxStoredTraces is the uploaded-trace store bound when
// Options.MaxStoredTraces is zero. At the 64 MiB default upload limit
// this caps the store's worst-case footprint at a few hundred GiB of
// *requests*, but resident memory is what matters: bound it to the
// traffic you expect and size the host accordingly.
const DefaultMaxStoredTraces = 1024

// DefaultMaxCachedResults is the job-result cache bound when
// Options.MaxCachedResults is zero: generous enough that eviction never
// bites an interactive workload, small enough that a long-lived
// persistent engine cannot grow its data directory without bound.
const DefaultMaxCachedResults = 1 << 16

// Engine executes simulation jobs on a bounded worker pool over a
// content-addressed result cache. It is safe for concurrent use by any
// number of goroutines; one engine is meant to be shared process-wide
// (the HTTP service owns exactly one).
type Engine struct {
	workers int
	model   *aging.Model
	tech    power.Tech
	gen     func(cache.Geometry) workload.GenParams

	// lifeCtx is cancelled by Close; every sweep context descends from
	// it so shutdown cancels all in-flight work.
	lifeCtx  context.Context
	lifeStop context.CancelFunc

	// traces memoises generated synthetic traces by benchmark and
	// geometry.
	traces *flight[*trace.Trace]
	// store holds uploaded real traces, content-addressed and measured
	// at admission (see store.go); with a data directory it writes
	// through to traceBlobs and reloads from it at start.
	store *traceStore
	// runs memoises the trace simulation itself, keyed by the fields
	// that affect it (JobSpec.runKey): jobs differing only in sleep
	// mode, epochs or, without in-trace updates, policy share one run.
	// Runs are derived data — every persisted JobResult embeds its run
	// — so this layer stays in-memory; a run over an uploaded trace is
	// forgotten when the trace store reaps the trace.
	runs *flight[*core.RunResult]
	// results is the job-result cache: a typed adapter over resultStore
	// (cas.MemStore or cas.DiskStore per Options.DataDir), so completed
	// jobs read through and write through the persistence layer.
	results     *blobCache[*JobResult]
	resultStore cas.Store
	traceBlobs  cas.Store // nil when memory-only
	dataDir     string

	q         *taskQueue
	startOnce sync.Once
	wg        sync.WaitGroup
	closed    atomic.Bool

	// tel is never nil (obs.Nop() at minimum); met holds the resolved
	// metric handles (all nil under Nop, where every call no-ops).
	tel *obs.Telemetry
	met engineMetrics

	sweepSeq       atomic.Uint64
	sweepsTotal    atomic.Uint64
	jobsSubmitted  atomic.Uint64
	jobsCompleted  atomic.Uint64
	jobsFailed     atomic.Uint64
	jobsCanceled   atomic.Uint64
	activeWorkers  atomic.Int64
	tracesBuilt    atomic.Uint64
	tracesUploaded atomic.Uint64
}

// The default aging characterisation is memoised process-wide: building
// it runs the SNM bisection calibration (~90ms), which dominated the
// cost of opening an engine — a warm start that reads every blob from
// disk is an order of magnitude cheaper than this one computation. The
// model is immutable post-calibration and internally synchronised, so
// sharing one across engines is safe.
var (
	defaultModelOnce sync.Once
	defaultModel     *aging.Model
	defaultModelErr  error
)

func defaultAgingModel() (*aging.Model, error) {
	defaultModelOnce.Do(func() {
		defaultModel, defaultModelErr = aging.New(aging.DefaultConfig())
	})
	return defaultModel, defaultModelErr
}

// New builds an engine. The worker pool starts lazily on the first
// Submit, so purely synchronous users (the experiment suite) never spawn
// goroutines.
func New(o Options) (*Engine, error) {
	if o.Workers < 0 {
		return nil, fmt.Errorf("engine: negative worker count %d", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Model == nil {
		m, err := defaultAgingModel()
		if err != nil {
			return nil, err
		}
		o.Model = m
	}
	if o.Tech == (power.Tech{}) {
		o.Tech = power.DefaultTech()
	}
	if o.Gen == nil {
		o.Gen = workload.DefaultGenParams
	}
	if o.MaxStoredTraces <= 0 {
		o.MaxStoredTraces = DefaultMaxStoredTraces
	}
	if o.MaxCachedResults <= 0 {
		o.MaxCachedResults = DefaultMaxCachedResults
	}
	if o.Telemetry == nil {
		o.Telemetry = obs.New()
	}
	// The persistence spine: one cas.Store per keyspace. Memory-only
	// engines run the result cache over a MemStore (same code path, no
	// disk) and skip the trace-blob layer entirely (the resident trace
	// map already is the memory store).
	var resultStore cas.Store
	var traceBlobs cas.Store
	if o.DataDir != "" {
		var err error
		resultStore, err = cas.OpenDisk(filepath.Join(o.DataDir, "jobs"), cas.Limits{MaxEntries: o.MaxCachedResults})
		if err != nil {
			return nil, fmt.Errorf("engine: opening data dir: %w", err)
		}
		traceBlobs, err = cas.OpenDisk(filepath.Join(o.DataDir, "traces"), cas.Limits{})
		if err != nil {
			resultStore.Close()
			return nil, fmt.Errorf("engine: opening data dir: %w", err)
		}
	} else {
		resultStore = cas.NewMem(cas.Limits{MaxEntries: o.MaxCachedResults})
	}
	ctx, stop := context.WithCancel(context.Background())
	runs := newFlight[*core.RunResult](true)
	e := &Engine{
		workers:  o.Workers,
		model:    o.Model,
		tech:     o.Tech,
		gen:      o.Gen,
		lifeCtx:  ctx,
		lifeStop: stop,
		traces:   newFlight[*trace.Trace](true),
		store: newTraceStore(o.MaxStoredTraces, traceBlobs, func(id string) {
			runs.forget(JobSpec{TraceID: id}.workloadKey() + "|")
		}),
		runs:        runs,
		resultStore: resultStore,
		traceBlobs:  traceBlobs,
		dataDir:     o.DataDir,
		q:           newTaskQueue(),
		tel:         o.Telemetry,
	}
	e.results = newBlobCache(resultStore, blobCodec[*JobResult]{
		encode: encodeJobResult,
		decode: decodeJobResult,
	})
	e.registerMetrics()
	// Warm start: previously uploaded traces become resident (with
	// their admission-time signatures) before the first request lands.
	// Job results stay on disk and read through lazily.
	e.store.load()
	return e, nil
}

// DataDir returns the engine's persistence root ("" when memory-only).
func (e *Engine) DataDir() string { return e.dataDir }

// Telemetry returns the engine's telemetry bundle (never nil). The HTTP
// layers render its registry on /metrics and serve its tracer's spans.
func (e *Engine) Telemetry() *obs.Telemetry { return e.tel }

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.workers }

// Model exposes the engine's aging characterisation.
func (e *Engine) Model() *aging.Model { return e.model }

// Tech exposes the engine's energy model.
func (e *Engine) Tech() power.Tech { return e.tech }

// Close cancels every in-flight sweep and stops the workers. Jobs still
// queued are recorded as cancelled, so pending Wait calls return. Close
// is idempotent; Submit after Close fails.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.lifeStop()
	e.q.close()
	e.wg.Wait()
	// Workers are drained; release the persistence layer. Disk blobs
	// stay put for the next engine to warm-start from.
	_ = e.resultStore.Close()
	if e.traceBlobs != nil {
		_ = e.traceBlobs.Close()
	}
}

// Drain blocks until every completed result has landed in its store
// (cas.Store.Drain). Results are put behind — a job's completion is
// visible (and its sweep event fires) before its blob is written — so
// callers about to inspect the data directory or reason about the
// store-resident inventory drain first. Uploaded traces are written
// through at admission and need no drain. Close drains implicitly.
func (e *Engine) Drain() {
	e.resultStore.Drain()
}

// Trace returns the generated trace for a benchmark and geometry,
// building and caching it on first use. Concurrent requests for the
// same trace generate it once. The trace is memoised (pointer-stable
// across calls) and is the very one simulations run on, so callers must
// not modify it.
func (e *Engine) Trace(ctx context.Context, bench string, g cache.Geometry) (*trace.Trace, error) {
	key := fmt.Sprintf("%s|%d|%d", bench, g.Size/1024, g.LineSize)
	return e.traces.do(ctx, key, func() (*trace.Trace, error) {
		p, ok := workload.ByName(bench)
		if !ok {
			return nil, fmt.Errorf("engine: unknown benchmark %q", bench)
		}
		gp := e.gen(g)
		gp.Geometry = g
		t, err := p.Generate(gp)
		if err != nil {
			return nil, err
		}
		// Validated once here, at build: every later simulation of this
		// cached trace runs the unchecked path on the strength of this
		// check (like decoded blobs, which validate at decode).
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("engine: generated trace %q: %w", bench, err)
		}
		e.tracesBuilt.Add(1)
		return t, nil
	})
}

// RunJob executes one job synchronously on the caller's goroutine,
// through the shared result cache: concurrent callers (and pooled
// sweeps) running the same point simulate it exactly once. The cache
// reads through and writes through the engine's persistence layer, so
// on a persistent engine a point simulated before the last restart
// resolves from disk without re-simulating. This is the path the
// experiment suite memoises through.
func (e *Engine) RunJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return e.runJob(ctx, spec, false)
}

// runJob is RunJob with the caller's pin state made explicit: sweep
// workers (pinned=true) may resolve condemned traces — their sweep
// pinned the trace at submission, so a concurrent DELETE defers to
// them — while direct callers see a removed trace as unknown, exactly
// like a new submission would.
func (e *Engine) runJob(ctx context.Context, spec JobSpec, pinned bool) (*JobResult, error) {
	return e.runJobTimed(ctx, spec, pinned, nil)
}

// runJobTimed is runJob with an optional phase clock. The persist phase
// is the result-cache traversal minus the job's own computation: the
// read-through Get, the codec, and queueing the blob with PutBehind
// (or, for a waiter, the wait on a concurrent leader and the decode).
func (e *Engine) runJobTimed(ctx context.Context, spec JobSpec, pinned bool, pc *phaseClock) (*JobResult, error) {
	spec = spec.Normalised()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// One ID derivation serves the cache key and the result (it is a
	// canonical-string hash, measurable at sweep job rates).
	id := spec.ID()
	doStart := time.Now()
	var fillDur time.Duration
	var fillEnd time.Time
	res, cached, err := e.results.do(ctx, id, func() (*JobResult, error) {
		fillStart := time.Now()
		r, serr := e.simulate(ctx, id, spec, pinned, pc)
		fillEnd = time.Now()
		fillDur = fillEnd.Sub(fillStart)
		return r, serr
	})
	if pc != nil {
		start := doStart
		if !fillEnd.IsZero() {
			start = fillEnd
		}
		pc.add(phasePersist, start, time.Since(doStart)-fillDur)
	}
	if err != nil {
		return nil, err
	}
	if cached {
		// Decoded values are private copies, so the flag cannot
		// contaminate the stored blob.
		res.Cached = true
	}
	return res, nil
}

// simulate is the uncached execution of one validated job. id is
// spec.ID(), derived once by the caller.
func (e *Engine) simulate(ctx context.Context, id string, spec JobSpec, pinned bool, pc *phaseClock) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, err := spec.PolicyKind()
	if err != nil {
		return nil, err
	}
	mode, err := spec.SleepMode()
	if err != nil {
		return nil, err
	}
	g := spec.Geometry()
	run, err := e.runs.do(ctx, spec.runKey(), func() (*core.RunResult, error) {
		resolveStart := time.Now()
		tr, err := e.traceFor(ctx, spec, g, pinned)
		if err != nil {
			return nil, err
		}
		pc.add(phaseResolve, resolveStart, time.Since(resolveStart))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		simStart := time.Now()
		sim, err := core.New(core.Config{
			Geometry:    g,
			Banks:       spec.Banks,
			Policy:      kind,
			Tech:        e.tech,
			UpdateEvery: spec.UpdateEvery,
		})
		if err != nil {
			return nil, err
		}
		// The trace's columns feed the walk by slicing, so a simulation
		// allocates and copies no per-access state. Unchecked is sound
		// here: every trace source in this engine — decoded blob,
		// admitted upload, generated trace — validated at creation, and
		// the traces are immutable thereafter.
		res, err := sim.RunColumnsUnchecked(tr, nil)
		if err == nil {
			pc.add(phaseSimulate, simStart, time.Since(simStart))
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	if run.PolicyName != string(kind) {
		// Walked under a sibling policy (the run key omits the policy
		// when no update runs), and identical to this policy's walk but
		// for the name, so a shallow copy carrying it is this job's run.
		cp := *run
		cp.PolicyName = string(kind)
		run = &cp
	}
	projStart := time.Now()
	proj, err := core.ProjectAging(e.model, run.RegionSleepFractions(), kind, spec.Epochs, mode)
	if err != nil {
		return nil, err
	}
	pc.add(phaseProject, projStart, time.Since(projStart))
	return &JobResult{ID: id, Spec: spec, Run: run, Projection: proj}, nil
}

// traceFor resolves a job's workload: an uploaded trace by content
// address when TraceID is set, the generated synthetic benchmark
// otherwise. pinned selects the condemned-tolerant lookup (sweep
// workers whose sweep pinned the trace at submission); unpinned callers
// see a removed trace as unknown.
func (e *Engine) traceFor(ctx context.Context, spec JobSpec, g cache.Geometry, pinned bool) (*trace.Trace, error) {
	if spec.TraceID != "" {
		var st *storedTrace
		var ok bool
		if pinned {
			st, ok = e.store.resolve(spec.TraceID)
		} else {
			st, ok = e.store.get(spec.TraceID)
		}
		if !ok {
			return nil, fmt.Errorf("engine: unknown trace %q (upload it first)", spec.TraceID)
		}
		return st.tr, nil
	}
	return e.Trace(ctx, spec.Bench, g)
}

// Job returns the cached result for a job ID, if that job has completed
// on this engine (under any sweep or RunJob call) — or, on a persistent
// engine, under any previous engine that shared the data directory.
func (e *Engine) Job(id string) (*JobResult, bool) {
	return e.results.get(id)
}

// ImportResult admits a job result computed elsewhere into this
// engine's result cache — the receiving half of the cluster's
// replicated write-through. Only complete successful results are
// importable, and the result's ID must equal its spec's re-derived
// content address: a corrupted or forged result cannot poison the
// cache under a key it does not answer for. created reports whether
// the result was new here (false: an equal result was already cached,
// which by content addressing is the same result).
func (e *Engine) ImportResult(res *JobResult) (created bool, err error) {
	if res == nil || res.Err != "" || res.Canceled || res.Run == nil || res.Projection == nil {
		return false, fmt.Errorf("engine: only complete successful results are importable")
	}
	spec := res.Spec.Normalised()
	if res.ID != spec.ID() {
		return false, fmt.Errorf("engine: result ID %s does not match its spec (derives %s)", res.ID, spec.ID())
	}
	if _, ok := e.results.get(res.ID); ok {
		return false, nil
	}
	// Imported results carry no local timing or cache provenance.
	cp := *res
	cp.Spec = spec
	cp.Cached = false
	cp.Timing = nil
	if err := e.results.put(res.ID, &cp); err != nil {
		return false, err
	}
	return true, nil
}

// ResetRuns drops completed simulation results — including persisted
// ones on a persistent engine — while generated traces are kept.
// Benchmarks use it so every iteration re-simulates.
func (e *Engine) ResetRuns() {
	e.results.reset()
	e.runs.forget("")
}

// Stats is a snapshot of the engine counters, served by /metrics.
type Stats struct {
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	ActiveWorkers int    `json:"active_workers"`
	SweepsTotal   uint64 `json:"sweeps_total"`
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CachedResults int    `json:"cached_results"`
	// RunsExecuted counts trace simulations actually performed;
	// RunsShared counts jobs that reused another job's simulation (same
	// run key: the same point up to sleep mode, epochs and, without
	// in-trace updates, policy).
	RunsExecuted uint64 `json:"runs_executed"`
	RunsShared   uint64 `json:"runs_shared"`
	TracesBuilt  uint64 `json:"traces_built"`
	TracesCached int    `json:"traces_cached"`
	// TracesUploaded counts real traces admitted through AddTrace;
	// TracesStored is the resident uploaded-trace count.
	TracesUploaded uint64 `json:"traces_uploaded"`
	TracesStored   int    `json:"traces_stored"`
	// Persistent reports whether a data directory backs the engine.
	Persistent bool `json:"persistent"`
	// The persistence counters aggregate both cas keyspaces (job
	// results and trace blobs). PersistHits counts blobs served from
	// the backing store (a warm-restart cache hit is one of these);
	// PersistMisses counts store reads that found nothing.
	PersistHits   uint64 `json:"persist_hits"`
	PersistMisses uint64 `json:"persist_misses"`
	// PersistWrites counts blobs written through; PersistWriteFailures
	// counts write-behinds that failed (the value was still served).
	PersistWrites        uint64 `json:"persist_writes"`
	PersistWriteFailures uint64 `json:"persist_write_failures"`
	// PersistEvictions counts result blobs dropped by the capacity
	// bound; PersistCorruptions counts blobs quarantined by the store's
	// checksum plus blobs rejected by the typed codec.
	PersistEvictions   uint64 `json:"persist_evictions"`
	PersistCorruptions uint64 `json:"persist_corruptions"`
	// ResultBlobs / TraceBlobs are the resident blob counts and
	// ResultBlobBytes / TraceBlobBytes their payload sizes.
	ResultBlobs     int   `json:"result_blobs"`
	TraceBlobs      int   `json:"trace_blobs"`
	ResultBlobBytes int64 `json:"result_blob_bytes"`
	TraceBlobBytes  int64 `json:"trace_blob_bytes"`
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	// The persist_* block describes the durable layer only: a
	// memory-only engine runs its result cache over a cas.MemStore for
	// code-path uniformity, but reporting those internal store counters
	// as "persistence" would tell an operator that a server which
	// forgets everything on restart is persisting.
	var rm, tm cas.Metrics
	if e.dataDir != "" {
		rm = e.resultStore.Metrics()
		if e.traceBlobs != nil {
			tm = e.traceBlobs.Metrics()
		}
	}
	return Stats{
		Workers:        e.workers,
		QueueDepth:     e.q.size(),
		ActiveWorkers:  int(e.activeWorkers.Load()),
		SweepsTotal:    e.sweepsTotal.Load(),
		JobsSubmitted:  e.jobsSubmitted.Load(),
		JobsCompleted:  e.jobsCompleted.Load(),
		JobsFailed:     e.jobsFailed.Load(),
		JobsCanceled:   e.jobsCanceled.Load(),
		CacheHits:      e.results.hits.Load(),
		CacheMisses:    e.results.misses.Load(),
		CachedResults:  e.results.size(),
		RunsExecuted:   e.runs.misses.Load(),
		RunsShared:     e.runs.hits.Load(),
		TracesBuilt:    e.tracesBuilt.Load(),
		TracesCached:   e.traces.size(),
		TracesUploaded: e.tracesUploaded.Load(),
		TracesStored:   e.store.size(),

		Persistent:           e.dataDir != "",
		PersistHits:          rm.Hits + tm.Hits,
		PersistMisses:        (rm.Gets - rm.Hits) + (tm.Gets - tm.Hits),
		PersistWrites:        rm.Puts + tm.Puts,
		PersistWriteFailures: rm.PutFailures + tm.PutFailures,
		PersistEvictions:     rm.Evictions + tm.Evictions,
		PersistCorruptions:   rm.Corruptions + tm.Corruptions + e.results.corrupt.Load() + e.store.corrupt.Load(),
		ResultBlobs:          rm.Entries,
		TraceBlobs:           tm.Entries,
		ResultBlobBytes:      rm.Bytes,
		TraceBlobBytes:       tm.Bytes,
	}
}

// Submit expands the sweep, enqueues its jobs on the pool grouped by
// run (one task per distinct trace simulation), and returns a handle
// immediately. ctx bounds expansion only; the sweep's own lifetime is
// governed by the engine (Close) and the handle (Cancel).
func (e *Engine) Submit(ctx context.Context, spec SweepSpec) (*Handle, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("engine: closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	// Trace references resolve against this engine's store; reject the
	// whole sweep up front rather than failing jobs one by one — and
	// pin every referenced trace for the sweep's lifetime, so a
	// concurrent DELETE cannot pull a workload out from under jobs that
	// were admitted referencing it (the removal completes when the
	// sweep finishes; see traceStore).
	var pinned []string
	seen := make(map[string]bool)
	for _, j := range jobs {
		if j.TraceID != "" && !seen[j.TraceID] {
			seen[j.TraceID] = true
			pinned = append(pinned, j.TraceID)
		}
	}
	if err := e.store.pinAll(pinned); err != nil {
		return nil, err
	}
	e.startOnce.Do(func() {
		for i := 0; i < e.workers; i++ {
			e.wg.Add(1)
			go e.worker()
		}
	})
	// The sweep span continues the submitter's trace when ctx carries one
	// (a coordinator hop propagated via traceparent) and roots a new
	// trace otherwise; it closes when the last job slot resolves. The
	// span context rides on the handle, not on the handle's context:
	// workers need it past the submitting request's lifetime.
	id := fmt.Sprintf("sweep-%d", e.sweepSeq.Add(1))
	_, span := e.tel.Tracer.StartSpan(ctx, "engine.sweep",
		"sweep_id", id, "jobs", fmt.Sprintf("%d", len(jobs)))
	// Release the sweep's trace pins before Wait returns, so a removal
	// deferred behind this sweep is already final by then.
	h := NewHandle(e.lifeCtx, id, spec, jobs, span, func() { e.store.unpinAll(pinned) })
	e.sweepsTotal.Add(1)
	e.jobsSubmitted.Add(uint64(len(jobs)))
	// Schedule by run: one task per distinct run, holding the slots of
	// every job that shares it in submission order. Every group is
	// complete before the first push, because a worker ranges over its
	// task's slots as soon as it pops it.
	byRun := make(map[string]*task, len(jobs))
	tasks := make([]*task, 0, len(jobs))
	now := time.Now()
	for i, j := range jobs {
		key := j.runKey()
		t, ok := byRun[key]
		if !ok {
			t = &task{h: h, enq: now}
			byRun[key] = t
			tasks = append(tasks, t)
		}
		t.slots = append(t.slots, i)
	}
	e.q.push(tasks)
	return h, nil
}

// task is one distinct run of a sweep: the slots of the jobs that share
// it, which one worker executes back to back. The first resolves and
// walks the trace; the rest hit the run memo and only project, persist
// and record. enq timestamps the push, so each slot's queue wait runs
// until its worker turns to it.
type task struct {
	h     *Handle
	slots []int
	enq   time.Time
}

// worker pulls tasks until the queue is closed and drained. Tasks whose
// sweep is already cancelled are recorded as cancelled without
// simulating, so shutdown unblocks every waiter quickly.
func (e *Engine) worker() {
	defer e.wg.Done()
	// One phase clock per worker, reset per job: timing a job costs no
	// allocation beyond its retained JobTiming summary.
	pc := new(phaseClock)
	for {
		t, ok := e.q.pop()
		if !ok {
			return
		}
		e.activeWorkers.Add(1)
		for _, slot := range t.slots {
			e.execute(t, slot, pc)
		}
		e.activeWorkers.Add(-1)
	}
}

func (e *Engine) execute(t *task, slot int, pc *phaseClock) {
	spec := t.h.jobs[slot]
	// Phase timing is a core result field — the cluster merges shard
	// timings whatever the telemetry config — so the clock always runs;
	// with a no-op recorder the observations are simply dropped, and the
	// overhead guard holds that recording cost under 2%.
	res := e.executeObserved(t, spec, pc)
	// Count before recording: the record that resolves the last slot
	// releases Wait, and a Stats read after Wait must include it.
	switch {
	case res.Canceled:
		e.jobsCanceled.Add(1)
	case res.Err != "":
		e.jobsFailed.Add(1)
	default:
		e.jobsCompleted.Add(1)
	}
	t.h.Record(slot, res)
}

// failedResult wraps a job execution error as its recorded result.
func failedResult(spec JobSpec, err error) *JobResult {
	return &JobResult{
		ID: spec.ID(), Spec: spec, Err: err.Error(),
		Canceled: errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded),
	}
}

// taskQueue is an unbounded FIFO: Submit never blocks, and close wakes
// every worker. Workers drain remaining tasks after close (they resolve
// instantly as cancelled once the engine context is down), so every
// submitted job is recorded exactly once and every Wait returns.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []*task
	closed bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a sweep's tasks and wakes the idle workers.
func (q *taskQueue) push(ts []*task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, ts...)
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *taskQueue) pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.tasks) == 0 {
		return nil, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

func (q *taskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// size returns the job slots no worker has picked up.
func (q *taskQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, t := range q.tasks {
		n += len(t.slots)
	}
	return n
}
