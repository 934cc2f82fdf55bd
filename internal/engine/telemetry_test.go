package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"nbticache/internal/obs"
	"nbticache/internal/workload"
)

// TestSweepTimingAndSpans runs a small sweep on a live-telemetry engine
// and asserts the whole per-job accounting chain: every result carries
// a phase-timing summary, the sweep status aggregates it, and the
// tracer holds one well-formed span tree — sweep root, one job span per
// slot, queue/persist (and compute-phase) children — under the sweep's
// trace ID.
func TestSweepTimingAndSpans(t *testing.T) {
	e, err := New(Options{Workers: 2, Gen: testGen})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	spec := SweepSpec{Benches: []string{"sha", "gsme"}, Banks: []int{2, 4}}
	h, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range res.Jobs {
		if r.Failed() {
			t.Fatalf("job %s: %s", r.ID, r.Err)
		}
		if r.Timing == nil {
			t.Fatalf("job %s has no timing", r.ID)
		}
		if r.Timing.TotalMs <= 0 {
			t.Errorf("job %s: total %v ms, want > 0", r.ID, r.Timing.TotalMs)
		}
	}
	st := res.Status
	if st.TraceID == "" {
		t.Fatal("sweep status has no trace ID")
	}
	if st.Timing == nil || st.Timing.JobsTimed != len(res.Jobs) {
		t.Fatalf("sweep timing %+v, want JobsTimed == %d", st.Timing, len(res.Jobs))
	}

	spans := e.Telemetry().Tracer.Spans(st.TraceID)
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the sweep trace")
	}
	byID := make(map[string]obs.Span, len(spans))
	jobSpans := 0
	var rootName string
	for _, sp := range spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %s carries trace %s, want %s", sp.SpanID, sp.TraceID, st.TraceID)
		}
		if _, dup := byID[sp.SpanID]; dup {
			t.Fatalf("duplicate span ID %s", sp.SpanID)
		}
		byID[sp.SpanID] = sp
		if sp.ParentID == "" {
			rootName = sp.Name
		}
		if sp.Name == "engine.job" {
			jobSpans++
		}
	}
	if rootName != "engine.sweep" {
		t.Fatalf("root span is %q, want engine.sweep", rootName)
	}
	if jobSpans != len(res.Jobs) {
		t.Fatalf("%d engine.job spans for %d jobs", jobSpans, len(res.Jobs))
	}
	phaseChildren := map[string]int{}
	for _, sp := range spans {
		if sp.ParentID == "" {
			continue
		}
		parent, ok := byID[sp.ParentID]
		if !ok {
			t.Fatalf("span %s (%s) has unresolved parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
		if parent.Name == "engine.job" {
			phaseChildren[sp.Name]++
		}
	}
	// Queue and persist wrap every execution; the compute phases run on
	// every fresh simulation (all jobs here are distinct first runs).
	for _, want := range []string{"engine.queue", "engine.persist", "engine.resolve", "engine.simulate", "engine.project"} {
		if phaseChildren[want] != len(res.Jobs) {
			t.Errorf("%d %s phase spans for %d jobs", phaseChildren[want], want, len(res.Jobs))
		}
	}
}

// benchSweep is the 36-point workload × banks grid the overhead guard
// runs with and without telemetry.
var benchSweep = SweepSpec{Benches: workload.Names(), Banks: []int{4, 8}}

// TestTelemetryOverhead is the overhead guard: the instrumented sweep
// path must stay cheap relative to the no-op recorder on the benchmark
// workload, so kernel wins are not quietly given back to bookkeeping.
// Two bounds, either passes: a 2% ratio, or an absolute per-job budget.
// The ratio alone punishes hot-path speedups — telemetry's absolute
// cost is a fixed few microseconds per job, so every halving of the
// simulation denominator doubles the measured ratio with nothing
// regressing — while the budget alone would drift on much faster
// hosts; together they fail only when recording itself gets more
// expensive. Wall-clock comparisons are noisy, so the guard takes the
// best of several paired runs and only fails when every attempt
// exceeds both bounds.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead guard benchmarks for seconds; skipped in -short")
	}
	workers := runtime.GOMAXPROCS(0)
	mkEngine := func(tel *obs.Telemetry) *Engine {
		e, err := New(Options{Workers: workers, Gen: testGen, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		for _, name := range benchSweep.Benches {
			if _, err := e.Trace(context.Background(), name, (JobSpec{Bench: name}).Geometry()); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	jobsPerSweep := 0
	oneSweep := func(e *Engine) {
		e.ResetRuns()
		h, err := e.Submit(context.Background(), benchSweep)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Jobs {
			if r.Failed() {
				t.Fatalf("job %s: %s", r.ID, r.Err)
			}
		}
		jobsPerSweep = len(res.Jobs)
	}
	live, nop := mkEngine(obs.New()), mkEngine(obs.Nop())
	timeBlock := func(e *Engine, sweeps int) time.Duration {
		start := time.Now()
		for i := 0; i < sweeps; i++ {
			oneSweep(e)
		}
		return time.Since(start)
	}
	// Warm both arms: JIT-free, but caches, pools, and the tracer's
	// steady-state retention all need to exist before timing starts.
	timeBlock(live, 3)
	timeBlock(nop, 3)

	// One testing.Benchmark run per arm is far too noisy on a shared
	// small machine (single 1 s samples vary by ±10%). Instead,
	// interleave many short blocks so drift (thermal, scheduler,
	// neighbours) hits both arms alike, and compare the totals: per-block
	// noise cancels and garbage-collection cost amortises into whichever
	// arm causes it.
	const (
		bound     = 1.02
		jobBudget = 10 * time.Microsecond // absolute recording cost per job
		blocks    = 16
		perBlock  = 16
	)
	bestRatio, bestPerJob := 0.0, time.Duration(0)
	for attempt := 0; attempt < 4; attempt++ {
		var liveTot, nopTot time.Duration
		for b := 0; b < blocks; b++ {
			if b%2 == 0 {
				liveTot += timeBlock(live, perBlock)
				nopTot += timeBlock(nop, perBlock)
			} else { // alternate order so ramp effects cancel too
				nopTot += timeBlock(nop, perBlock)
				liveTot += timeBlock(live, perBlock)
			}
		}
		ratio := float64(liveTot) / float64(nopTot)
		jobs := blocks * perBlock * jobsPerSweep
		perJob := (liveTot - nopTot) / time.Duration(jobs)
		if attempt == 0 || ratio < bestRatio {
			bestRatio = ratio
		}
		if attempt == 0 || perJob < bestPerJob {
			bestPerJob = perJob
		}
		t.Logf("attempt %d: live %v, nop %v over %d jobs, ratio %.4f, %v/job",
			attempt, liveTot, nopTot, jobs, ratio, perJob)
		if bestRatio <= bound || bestPerJob <= jobBudget {
			return
		}
	}
	t.Fatalf("telemetry recording overhead ratio %.4f exceeds %.2f and per-job cost %v exceeds %v in every attempt",
		bestRatio, bound, bestPerJob, jobBudget)
}
