package engine

import (
	"time"

	"nbticache/internal/cas"
	"nbticache/internal/obs"
)

// Phase names: the values of the nbtiserved_job_phase_seconds{phase}
// label, the engine.<phase> span names, and the keys of JobTiming. A
// job's queue phase lasts until its worker turns to it, so a job queued
// behind others of its run (one task, see Submit) includes their time.
const (
	phaseQueue    = "queue"    // enqueue until the worker turns to the job
	phaseResolve  = "resolve"  // workload resolution (trace lookup or generation)
	phaseSimulate = "simulate" // core trace simulation
	phaseProject  = "project"  // aging projection
	phasePersist  = "persist"  // result-cache read-through + write-behind
)

// phaseRec is one timed phase of a job execution.
type phaseRec struct {
	name  string
	start time.Time
	dur   time.Duration
}

// phaseClock collects a job's phase timings on the worker goroutine.
// A nil clock records nothing, so the uninstrumented (Nop telemetry)
// path carries no collection cost. The fixed backing array keeps the
// clock to one allocation, and each worker reuses its clock across
// jobs (see Engine.worker), so the per-job cost is a reset. Not safe
// for concurrent use; only the owning worker (and, via the
// single-flight layers, only the leader's closures) touches it.
type phaseClock struct {
	n    int
	recs [8]phaseRec
}

func (p *phaseClock) add(name string, start time.Time, dur time.Duration) {
	if p == nil || p.n == len(p.recs) {
		return
	}
	p.recs[p.n] = phaseRec{name: name, start: start, dur: dur}
	p.n++
}

func (p *phaseClock) reset() { p.n = 0 }

// phases returns the recorded slice; valid until the next reset.
func (p *phaseClock) phases() []phaseRec {
	if p == nil {
		return nil
	}
	return p.recs[:p.n]
}

// timing folds the collected phases into the JSON-facing summary.
func (p *phaseClock) timing(total time.Duration) *JobTiming {
	if p == nil {
		return nil
	}
	t := &JobTiming{TotalMs: durMs(total)}
	for _, r := range p.phases() {
		ms := durMs(r.dur)
		switch r.name {
		case phaseQueue:
			t.QueueMs = ms
		case phaseResolve:
			t.ResolveMs = ms
		case phaseSimulate:
			t.SimulateMs = ms
		case phaseProject:
			t.ProjectMs = ms
		case phasePersist:
			t.PersistMs = ms
		}
	}
	return t
}

func durMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// engineMetrics holds the engine's live metric handles. With Nop
// telemetry every handle is nil and every call on it is a no-op.
type engineMetrics struct {
	jobPhase *obs.HistogramVec // nbtiserved_job_phase_seconds{phase}
	blobOp   *obs.HistogramVec // nbtiserved_blob_op_seconds{store,op}
	// Per-phase handles, resolved once: With() joins a label key on
	// every call, and these sit on every job's execution path.
	phaseH [5]*obs.Histogram
}

// phaseIdx maps a phase name to its slot in phaseH / span-name tables.
func phaseIdx(name string) int {
	switch name {
	case phaseQueue:
		return 0
	case phaseResolve:
		return 1
	case phaseSimulate:
		return 2
	case phaseProject:
		return 3
	default:
		return 4 // phasePersist
	}
}

// phaseSpanNames are the engine.<phase> span names, indexed by
// phaseIdx, so the hot path never concatenates.
var phaseSpanNames = [5]string{
	"engine.queue", "engine.resolve", "engine.simulate", "engine.project", "engine.persist",
}

// opObservable is how the engine installs latency observers without
// widening the cas.Store interface: both built-in stores implement it.
type opObservable interface{ SetObserver(cas.OpObserver) }

// registerMetrics builds the engine's metric families on the telemetry
// registry and mirrors the Stats counters into it at every scrape, so
// /metrics keeps its historical series names while gaining the
// histogram families. No-ops entirely on a Nop registry.
func (e *Engine) registerMetrics() {
	r := e.tel.Metrics
	e.met = engineMetrics{
		jobPhase: r.HistogramVec("nbtiserved_job_phase_seconds",
			"Wall time of one phase of a sweep job's execution.", nil, "phase"),
		blobOp: r.HistogramVec("nbtiserved_blob_op_seconds",
			"Latency of one persistence-layer blob operation.", nil, "store", "op"),
	}
	for _, name := range []string{phaseQueue, phaseResolve, phaseSimulate, phaseProject, phasePersist} {
		e.met.phaseH[phaseIdx(name)] = e.met.jobPhase.With(name)
	}
	if r == nil {
		return
	}
	e.observeStore(e.resultStore, "results")
	e.observeStore(e.traceBlobs, "traces")

	// The Stats mirror: every historical /metrics series, refreshed at
	// scrape time so the exposition and the JSON stats never disagree.
	rows := []struct {
		name, typ, help string
		read            func(Stats) float64
	}{
		{"nbtiserved_workers", "gauge", "Worker pool size.", func(s Stats) float64 { return float64(s.Workers) }},
		{"nbtiserved_queue_depth", "gauge", "Jobs waiting for a worker.", func(s Stats) float64 { return float64(s.QueueDepth) }},
		{"nbtiserved_active_workers", "gauge", "Workers currently simulating.", func(s Stats) float64 { return float64(s.ActiveWorkers) }},
		{"nbtiserved_sweeps_total", "counter", "Sweeps submitted.", func(s Stats) float64 { return float64(s.SweepsTotal) }},
		{"nbtiserved_jobs_submitted_total", "counter", "Job slots enqueued.", func(s Stats) float64 { return float64(s.JobsSubmitted) }},
		{"nbtiserved_jobs_completed_total", "counter", "Job slots resolved successfully.", func(s Stats) float64 { return float64(s.JobsCompleted) }},
		{"nbtiserved_jobs_failed_total", "counter", "Job slots resolved with an error.", func(s Stats) float64 { return float64(s.JobsFailed) }},
		{"nbtiserved_jobs_canceled_total", "counter", "Job slots resolved by cancellation.", func(s Stats) float64 { return float64(s.JobsCanceled) }},
		{"nbtiserved_cache_hits_total", "counter", "Result-cache hits.", func(s Stats) float64 { return float64(s.CacheHits) }},
		{"nbtiserved_cache_misses_total", "counter", "Result-cache misses.", func(s Stats) float64 { return float64(s.CacheMisses) }},
		{"nbtiserved_cached_results", "gauge", "Distinct results resident in the cache.", func(s Stats) float64 { return float64(s.CachedResults) }},
		{"nbtiserved_runs_executed_total", "counter", "Trace simulations performed.", func(s Stats) float64 { return float64(s.RunsExecuted) }},
		{"nbtiserved_runs_shared_total", "counter", "Jobs that reused another job's simulation.", func(s Stats) float64 { return float64(s.RunsShared) }},
		{"nbtiserved_traces_built_total", "counter", "Synthetic traces generated.", func(s Stats) float64 { return float64(s.TracesBuilt) }},
		{"nbtiserved_traces_uploaded_total", "counter", "Real traces admitted via POST /v1/traces.", func(s Stats) float64 { return float64(s.TracesUploaded) }},
		{"nbtiserved_traces_stored", "gauge", "Uploaded traces resident in the store.", func(s Stats) float64 { return float64(s.TracesStored) }},
		{"nbtiserved_persistent", "gauge", "1 when a data directory backs the engine.", func(s Stats) float64 { return b2f(s.Persistent) }},
		{"nbtiserved_persist_hits_total", "counter", "Blobs served from the persistence layer.", func(s Stats) float64 { return float64(s.PersistHits) }},
		{"nbtiserved_persist_misses_total", "counter", "Persistence reads that found nothing.", func(s Stats) float64 { return float64(s.PersistMisses) }},
		{"nbtiserved_persist_writes_total", "counter", "Blobs written through to the persistence layer.", func(s Stats) float64 { return float64(s.PersistWrites) }},
		{"nbtiserved_persist_write_failures_total", "counter", "Write-behinds that failed (value still served).", func(s Stats) float64 { return float64(s.PersistWriteFailures) }},
		{"nbtiserved_persist_evictions_total", "counter", "Result blobs evicted by the capacity bound.", func(s Stats) float64 { return float64(s.PersistEvictions) }},
		{"nbtiserved_persist_corruptions_total", "counter", "Blobs quarantined as corrupt (checksum or codec).", func(s Stats) float64 { return float64(s.PersistCorruptions) }},
		{"nbtiserved_result_blobs", "gauge", "Job-result blobs resident in the store.", func(s Stats) float64 { return float64(s.ResultBlobs) }},
		{"nbtiserved_trace_blobs", "gauge", "Trace blobs resident in the store.", func(s Stats) float64 { return float64(s.TraceBlobs) }},
		{"nbtiserved_result_blob_bytes", "gauge", "Payload bytes of resident job-result blobs.", func(s Stats) float64 { return float64(s.ResultBlobBytes) }},
		{"nbtiserved_trace_blob_bytes", "gauge", "Payload bytes of resident trace blobs.", func(s Stats) float64 { return float64(s.TraceBlobBytes) }},
	}
	sets := make([]func(Stats), 0, len(rows))
	for _, row := range rows {
		read := row.read
		if row.typ == "counter" {
			c := r.Counter(row.name, row.help)
			sets = append(sets, func(st Stats) { c.Set(uint64(read(st))) })
		} else {
			g := r.Gauge(row.name, row.help)
			sets = append(sets, func(st Stats) { g.Set(read(st)) })
		}
	}
	r.OnCollect(func() {
		st := e.Stats()
		for _, set := range sets {
			set(st)
		}
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// observeStore hooks a cas store's Get/Put latencies into the blob-op
// histogram family, labeled by keyspace.
func (e *Engine) observeStore(store cas.Store, label string) {
	s, ok := store.(opObservable)
	if !ok || store == nil {
		return
	}
	get := e.met.blobOp.With(label, "get")
	put := e.met.blobOp.With(label, "put")
	s.SetObserver(func(op string, seconds float64) {
		if op == "get" {
			get.Observe(seconds)
		} else {
			put.Observe(seconds)
		}
	})
}

// executeObserved is the instrumented body of Engine.execute: it times
// the queue wait and each execution phase, feeds the phase histogram,
// annotates the result with its timing summary, and records the job's
// span batch (one job span plus one child per phase) under the sweep's
// trace in a single tracer call.
func (e *Engine) executeObserved(t *task, spec JobSpec, pc *phaseClock) *JobResult {
	h := t.h
	start := time.Now()
	pc.reset()
	pc.add(phaseQueue, t.enq, start.Sub(t.enq))
	res, err := e.runJobTimed(h.ctx, spec, true, pc)
	if err != nil {
		res = failedResult(spec, err)
	}
	res.Timing = pc.timing(time.Since(t.enq))

	recs := pc.phases()
	for _, rec := range recs {
		e.met.phaseH[phaseIdx(rec.name)].Observe(rec.dur.Seconds())
	}
	if sc := h.tsc; sc.Valid() {
		parent, _ := obs.ParseID(sc.SpanID)
		jobID := obs.NewID()
		// The batch and attrs never outlive the call — RecordBatch copies
		// both into the trace buffer — so they live on this stack frame.
		attrs := [4]string{"job_id", res.ID, "sweep_id", h.ID}
		var spans [len(phaseSpanNames) + 3]obs.CompactSpan
		spans[0] = obs.CompactSpan{
			SpanID: jobID, ParentID: parent, Name: "engine.job",
			Start: t.enq, DurationMs: durMs(time.Since(t.enq)),
			Attrs: attrs[:],
		}
		n := 1
		for _, rec := range recs {
			spans[n] = obs.CompactSpan{
				SpanID: obs.NewID(), ParentID: jobID,
				Name: phaseSpanNames[phaseIdx(rec.name)], Start: rec.start, DurationMs: durMs(rec.dur),
			}
			n++
		}
		e.tel.Tracer.RecordBatch(sc.TraceID, spans[:n]...)
	}
	return res
}
