package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"nbticache/internal/cache"
	"nbticache/internal/workload"
)

// testGen keeps traces tiny so the suite stays fast; the engine's
// behaviour under test is orchestration, not model fidelity.
func testGen(g cache.Geometry) workload.GenParams {
	return workload.GenParams{Geometry: g, Phases: 16, AccessesPerPhase: 64}
}

func testEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	e, err := New(Options{Workers: workers, Gen: testGen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestJobSpecID(t *testing.T) {
	// Defaulted and spelled-out specs of the same point share an ID.
	a := JobSpec{Bench: "sha"}
	b := JobSpec{Bench: "sha", SizeKB: 16, LineBytes: 16, Banks: 4, Policy: "probing", Mode: "voltage-scaled", Epochs: 4096}
	if a.ID() != b.ID() {
		t.Errorf("normalised IDs differ: %s vs %s", a.ID(), b.ID())
	}
	c := JobSpec{Bench: "sha", Banks: 8}
	if a.ID() == c.ID() {
		t.Errorf("distinct points share ID %s", a.ID())
	}
}

func TestJobSpecValidate(t *testing.T) {
	for _, bad := range []JobSpec{
		{Bench: "no-such-bench"},
		{Bench: "sha", Policy: "rot13"},
		{Bench: "sha", Mode: "cryogenic"},
		{Bench: "sha", Banks: 3},
		{Bench: "sha", Epochs: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	if err := (JobSpec{Bench: "sha"}).Validate(); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}

func TestSweepExpand(t *testing.T) {
	// Cartesian axes multiply; duplicates (explicit + cartesian) collapse.
	s := SweepSpec{
		Jobs:     []JobSpec{{Bench: "sha", Banks: 4}},
		Benches:  []string{"sha", "gsme"},
		Banks:    []int{4, 8},
		Policies: []string{"identity", "probing"},
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 benches × 2 banks × 2 policies = 8; the explicit job duplicates
	// (sha, 4, probing).
	if len(jobs) != 8 {
		t.Fatalf("expanded to %d jobs, want 8", len(jobs))
	}
	ids := make(map[string]bool)
	for _, j := range jobs {
		if ids[j.ID()] {
			t.Fatalf("duplicate job %s survived expansion", j.ID())
		}
		ids[j.ID()] = true
	}

	if _, err := (SweepSpec{}).Expand(); err == nil {
		t.Error("empty sweep expanded")
	}
	if _, err := (SweepSpec{Benches: []string{"nope"}}).Expand(); err == nil {
		t.Error("invalid bench expanded")
	}
}

// TestConcurrentDedup is the exactly-once guarantee under contention:
// many goroutines submit overlapping sweeps; every unique job must
// simulate exactly once (cache misses == unique jobs) while every
// submission still gets a full result set. Run with -race.
func TestConcurrentDedup(t *testing.T) {
	e := testEngine(t, 4)
	spec := SweepSpec{
		Benches:  []string{"sha", "gsme", "adpcm.dec"},
		Banks:    []int{2, 4},
		Policies: []string{"probing"},
	}
	unique, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	results := make([]*SweepResult, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := e.Submit(context.Background(), spec)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = h.Wait(context.Background())
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if got := len(results[i].Jobs); got != len(unique) {
			t.Fatalf("client %d: %d results, want %d", i, got, len(unique))
		}
		for _, r := range results[i].Jobs {
			if r.Failed() {
				t.Fatalf("client %d: job %s failed: %s", i, r.ID, r.Err)
			}
			if r.Run == nil || r.Projection == nil {
				t.Fatalf("client %d: job %s missing payload", i, r.ID)
			}
		}
	}

	st := e.Stats()
	if st.CacheMisses != uint64(len(unique)) {
		t.Errorf("%d simulations for %d unique jobs (cache misses should match)", st.CacheMisses, len(unique))
	}
	wantHits := uint64(clients*len(unique)) - uint64(len(unique))
	if st.CacheHits != wantHits {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, wantHits)
	}
	if st.JobsCompleted != uint64(clients*len(unique)) {
		t.Errorf("jobs completed = %d, want %d", st.JobsCompleted, clients*len(unique))
	}
	if st.JobsFailed != 0 || st.JobsCanceled != 0 {
		t.Errorf("unexpected failures/cancellations: %+v", st)
	}
}

// TestRunJobSharesCache checks the synchronous path (what the experiment
// suite uses) shares results with pooled sweeps.
func TestRunJobSharesCache(t *testing.T) {
	e := testEngine(t, 2)
	spec := JobSpec{Bench: "sha", Banks: 4, Policy: "identity"}

	direct, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cached {
		t.Error("first run reported cached")
	}

	h, err := e.Submit(context.Background(), SweepSpec{Jobs: []JobSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].Cached {
		t.Error("sweep re-simulated a job RunJob already computed")
	}
	// Cache hits are decoded private copies (pointer identity is not
	// preserved across the persistence boundary); sharing is semantic:
	// one simulation, identical measurements.
	if got := e.Stats().RunsExecuted; got != 1 {
		t.Errorf("runs executed = %d, want 1 (sweep must reuse RunJob's simulation)", got)
	}
	if res.Jobs[0].Run.Misses != direct.Run.Misses || res.Jobs[0].Run.Hits != direct.Run.Hits {
		t.Error("sweep's cached result diverges from the direct run")
	}

	// The content address resolves over HTTP-style lookup too.
	if _, ok := e.Job(spec.ID()); !ok {
		t.Errorf("Job(%s) not found after completion", spec.ID())
	}
}

// TestRunSharingAcrossModes: sleep mode and epochs only enter the aging
// projection, so jobs differing only there must share one trace
// simulation while keeping distinct projections.
func TestRunSharingAcrossModes(t *testing.T) {
	e := testEngine(t, 2)
	h, err := e.Submit(context.Background(), SweepSpec{
		Benches: []string{"sha"},
		Modes:   []string{ModeVoltageScaled, ModePowerGated},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(res.Jobs))
	}
	a, b := res.Jobs[0], res.Jobs[1]
	if a.Failed() || b.Failed() {
		t.Fatalf("jobs failed: %q / %q", a.Err, b.Err)
	}
	if a.Run != b.Run {
		t.Error("mode variants did not share the trace simulation")
	}
	if a.Projection.LifetimeYears == b.Projection.LifetimeYears {
		t.Error("distinct sleep modes projected identical lifetimes")
	}
	if st := e.Stats(); st.RunsExecuted != 1 || st.RunsShared != 1 {
		t.Errorf("runs executed/shared = %d/%d, want 1/1", st.RunsExecuted, st.RunsShared)
	}
}

// TestCancellation submits a sweep on a single worker and cancels it
// almost immediately: the sweep must still finish (every slot resolved),
// with later jobs recorded as cancelled, not failed.
func TestCancellation(t *testing.T) {
	e := testEngine(t, 1)
	spec := SweepSpec{
		Benches: workload.Names(), // 18 jobs on 1 worker
		Banks:   []int{16},
	}
	h, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()

	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep did not finish after cancel: %v", err)
	}
	st := res.Status
	if st.State != "canceled" {
		t.Errorf("state = %q, want canceled", st.State)
	}
	if st.Completed+st.Failed+st.Canceled != st.Total {
		t.Errorf("slots unaccounted: %+v", st)
	}
	if st.Canceled == 0 {
		t.Error("no job observed the cancellation")
	}
	if st.Failed != 0 {
		t.Errorf("%d jobs marked failed instead of canceled", st.Failed)
	}
	for i, r := range res.Jobs {
		if r == nil {
			t.Fatalf("job %d unresolved", i)
		}
	}

	// The engine survives: the same jobs run fine on a fresh sweep.
	h2, err := e.Submit(context.Background(), SweepSpec{Benches: []string{"sha"}, Banks: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[0].Failed() {
		t.Errorf("post-cancel resubmission failed: %s", res2.Jobs[0].Err)
	}
}

// TestCancelAfterDoneKeepsDone: cancelling a sweep whose every slot has
// already resolved cancels nothing, so it must keep reporting "done"
// with its completed count intact, not flip to "canceled".
func TestCancelAfterDoneKeepsDone(t *testing.T) {
	e := testEngine(t, 1)
	h, err := e.Submit(context.Background(), SweepSpec{Benches: []string{"sha"}, Banks: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" {
		t.Fatalf("state after Wait = %q, want done", res.Status.State)
	}
	h.Cancel()
	st := h.Status()
	if st.State != "done" || st.Completed != 1 || st.Canceled != 0 {
		t.Errorf("after Cancel: state %q, completed %d, canceled %d; want done, 1, 0", st.State, st.Completed, st.Canceled)
	}
	if h.Cancelled() {
		t.Error("Cancelled() reports a cancellation that cancelled nothing")
	}
}

// TestCloseUnblocksWaiters: Close while a sweep is queued must resolve
// every pending job as cancelled and return from Wait.
func TestCloseUnblocksWaiters(t *testing.T) {
	e, err := New(Options{Workers: 1, Gen: testGen})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Submit(context.Background(), SweepSpec{Benches: workload.Names()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *SweepResult, 1)
	go func() {
		res, _ := h.Wait(context.Background())
		done <- res
	}()
	e.Close()
	select {
	case res := <-done:
		if res == nil {
			t.Fatal("Wait returned no result")
		}
		st := res.Status
		if st.Completed+st.Failed+st.Canceled != st.Total {
			t.Errorf("slots unaccounted after Close: %+v", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait hung across Close")
	}
	if _, err := e.Submit(context.Background(), SweepSpec{Benches: []string{"sha"}}); err == nil {
		t.Error("Submit succeeded on a closed engine")
	}
}

// TestPerJobErrorIsolation: a point that passes the static screen but
// fails at run time (a 1 kB / 256 B cache has 4 lines, below the trace
// generator's 16-subregion floor) must fail alone while its sibling
// completes.
func TestPerJobErrorIsolation(t *testing.T) {
	e := testEngine(t, 2)
	bad := JobSpec{Bench: "sha", SizeKB: 1, LineBytes: 256, Banks: 2}
	if err := bad.Validate(); err != nil {
		t.Fatalf("expected the bad point to pass the static screen, got %v", err)
	}
	h, err := e.Submit(context.Background(), SweepSpec{Jobs: []JobSpec{
		{Bench: "sha", Banks: 4},
		bad,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Jobs[0]; r.Failed() {
		t.Errorf("good job failed: %s", r.Err)
	}
	if r := res.Jobs[1]; !r.Failed() || r.Canceled {
		t.Errorf("bad job = %+v, want a real (non-cancel) failure", r)
	}
	if st := res.Status; st.Failed != 1 || st.Completed != 1 {
		t.Errorf("status %+v, want 1 completed + 1 failed", st)
	}
}

// TestSpeedup documents the pooled-vs-serial throughput ratio. The
// acceptance bar is >= 2x on >= 4 cores; on fewer cores (CI containers
// are often 1-2 wide) parity is the documented expectation and the test
// only asserts the pool is not pathologically slower.
func TestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	spec := SweepSpec{Benches: workload.Names(), Banks: []int{4, 8}} // 36 jobs

	sweep := func(e *Engine) time.Duration {
		start := time.Now()
		h, err := e.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serialEng, pooledEng := testEngine(t, 1), testEngine(t, runtime.GOMAXPROCS(0))
	// One untimed pass each generates the traces and wakes every worker,
	// so the timings measure pure simulation on a warm pool rather than
	// the first wake-up of the pooled engine's extra workers. Each timed
	// pass follows ResetRuns, so it simulates. The passes alternate and
	// each side keeps its fastest: load from other processes only ever
	// slows a ~1 ms pass down, so the minimum is the pool's own cost.
	sweep(serialEng)
	sweep(pooledEng)
	serial, pooled := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		serialEng.ResetRuns()
		serial = min(serial, sweep(serialEng))
		pooledEng.ResetRuns()
		pooled = min(pooled, sweep(pooledEng))
	}
	ratio := float64(serial) / float64(pooled)
	t.Logf("serial %v, pooled(%d workers) %v, speedup %.2fx on %d-wide GOMAXPROCS",
		serial, runtime.GOMAXPROCS(0), pooled, ratio, runtime.GOMAXPROCS(0))

	if runtime.GOMAXPROCS(0) >= 4 {
		if ratio < 2 {
			t.Errorf("speedup %.2fx < 2x on %d cores", ratio, runtime.GOMAXPROCS(0))
		}
	} else if ratio < 0.5 {
		// Documented parity branch: on 1-2 cores the pool cannot beat
		// serial, but it must not collapse under scheduling overhead.
		t.Errorf("pooled run %.2fx of serial on a narrow machine — pool overhead is pathological", ratio)
	}
}

// TestStatusProgress polls a running sweep and checks monotone progress
// accounting.
func TestStatusProgress(t *testing.T) {
	e := testEngine(t, 2)
	h, err := e.Submit(context.Background(), SweepSpec{Benches: []string{"sha", "gsme", "cjpeg", "djpeg"}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Status().Total != 4 {
		t.Fatalf("total = %d, want 4", h.Status().Total)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := h.Status()
	if st.State != "done" || st.Completed != 4 {
		t.Errorf("final status %+v, want done/4", st)
	}
}

func ExampleEngine() {
	e, err := New(Options{Workers: 2, Gen: testGen})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer e.Close()
	h, err := e.Submit(context.Background(), SweepSpec{
		Benches: []string{"sha"},
		Banks:   []int{2, 4},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d jobs, state %s\n", len(res.Jobs), res.Status.State)
	// Output: 2 jobs, state done
}
