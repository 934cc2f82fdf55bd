package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nbticache/internal/core"
	"nbticache/internal/trace"
)

func uploadableTrace(t *testing.T, name string, n int, seed int64) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Name: name}
	rng := rand.New(rand.NewSource(seed))
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(9) + 1)
		tr.Append(cycle, uint64(rng.Intn(1<<14)), trace.Kind(rng.Intn(2)))
	}
	tr.Span = cycle + 50
	return tr
}

func TestAddTraceContentAddressed(t *testing.T) {
	e := testEngine(t, 2)
	tr := uploadableTrace(t, "real", 2000, 21)

	info, existed, err := e.AddTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Error("first upload reported as existing")
	}
	if !strings.HasPrefix(info.ID, "trace-") {
		t.Errorf("ID %q not content-addressed", info.ID)
	}
	if info.Accesses != tr.Len() || info.Cycles != tr.Span || info.Name != "real" {
		t.Errorf("info shape wrong: %+v", info)
	}
	if info.Signature == nil || info.Signature.Banks != 4 || len(info.Signature.UsefulIdleness) != 4 {
		t.Errorf("trace not characterised at admission: %+v", info.Signature)
	}

	// Same bytes, second upload: same ID, resident entry wins.
	again, existed, err := e.AddTrace(uploadableTrace(t, "real", 2000, 21))
	if err != nil {
		t.Fatal(err)
	}
	if !existed || again.ID != info.ID {
		t.Errorf("re-upload not deduplicated: %+v vs %+v", again, info)
	}
	if got := e.Stats().TracesUploaded; got != 1 {
		t.Errorf("TracesUploaded = %d, want 1", got)
	}
	if got := e.Stats().TracesStored; got != 1 {
		t.Errorf("TracesStored = %d, want 1", got)
	}

	// A different trace gets a different address.
	other, _, err := e.AddTrace(uploadableTrace(t, "real", 2000, 22))
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == info.ID {
		t.Error("distinct traces share an ID")
	}

	if _, ok := e.TraceInfo(info.ID); !ok {
		t.Error("TraceInfo lookup failed")
	}
	// The store holds a private copy: mutating the uploaded trace must
	// not desynchronise the stored accesses from the content address.
	tr.Append(tr.Span+10, 0xdead, trace.Read)
	if st, ok := e.storedTraceByID(info.ID); !ok || st.Len() != info.Accesses {
		t.Errorf("stored trace aliased caller's: len %d, want %d", st.Len(), info.Accesses)
	}
	if got := len(e.TraceInfos()); got != 2 {
		t.Errorf("TraceInfos len = %d, want 2", got)
	}
}

func TestAddTraceRejects(t *testing.T) {
	e := testEngine(t, 2)
	if _, _, err := e.AddTrace(nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, _, err := e.AddTrace(&trace.Trace{Name: "empty", Span: 10}); err == nil {
		t.Error("access-free trace accepted")
	}
	bad := &trace.Trace{Name: "bad\nname"}
	bad.Append(0, 1, trace.Read)
	if _, _, err := e.AddTrace(bad); err == nil {
		t.Error("control-character name accepted")
	}
}

// TestJobWithUploadedTrace runs a TraceID job and checks the result is
// identical to simulating the same trace in-process through core.
func TestJobWithUploadedTrace(t *testing.T) {
	e := testEngine(t, 2)
	tr := uploadableTrace(t, "measured", 5000, 7)
	info, _, err := e.AddTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{TraceID: info.ID, Banks: 4}
	res, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || res.Projection == nil {
		t.Fatalf("missing payload: %+v", res)
	}

	// In-process reference simulation of the very same trace.
	n := spec.Normalised()
	kind, err := n.PolicyKind()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := core.New(core.Config{
		Geometry: n.Geometry(),
		Banks:    n.Banks,
		Policy:   kind,
		Tech:     e.Tech(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pc.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Misses != want.Misses || res.Run.Hits != want.Hits {
		t.Errorf("engine run diverges: got %d/%d, want %d/%d hits/misses",
			res.Run.Hits, res.Run.Misses, want.Hits, want.Misses)
	}
	mode, err := n.SleepMode()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := core.ProjectAging(e.Model(), want.RegionSleepFractions(), kind, n.Epochs, mode)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Projection.LifetimeYears-proj.LifetimeYears) > 1e-12 {
		t.Errorf("lifetime diverges: got %v, want %v", res.Projection.LifetimeYears, proj.LifetimeYears)
	}
}

func TestSweepWithTraceIDs(t *testing.T) {
	e := testEngine(t, 2)
	info, _, err := e.AddTrace(uploadableTrace(t, "axis", 3000, 5))
	if err != nil {
		t.Fatal(err)
	}

	spec := SweepSpec{TraceIDs: []string{info.ID}, Banks: []int{2, 4}}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("expanded %d jobs, want 2 (no benchmark explosion)", len(jobs))
	}
	for _, j := range jobs {
		if j.TraceID != info.ID || j.Bench != "" {
			t.Errorf("bad expansion: %+v", j)
		}
	}

	h, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Jobs {
		if r.Failed() || r.Run == nil {
			t.Errorf("trace-backed job failed: %+v", r)
		}
	}

	// Mixed axis: benchmarks and traces side by side.
	mixed := SweepSpec{Benches: []string{"sha"}, TraceIDs: []string{info.ID}}
	jobs, err = mixed.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("mixed axis expanded %d jobs, want 2", len(jobs))
	}
}

// TestTraceStoreBound: admission refuses past the configured bound,
// RemoveTrace frees slots, and removal makes later references fail.
func TestTraceStoreBound(t *testing.T) {
	e, err := New(Options{Workers: 1, Gen: testGen, MaxStoredTraces: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	first, _, err := e.AddTrace(uploadableTrace(t, "one", 500, 1))
	if err != nil {
		t.Fatal(err)
	}
	second := uploadableTrace(t, "two", 500, 2)
	if _, _, err := e.AddTrace(second); !errors.Is(err, ErrTraceStoreFull) {
		t.Fatalf("over-bound admission err = %v, want ErrTraceStoreFull", err)
	}
	// Re-uploading the resident trace is still idempotent at the bound.
	if _, existed, err := e.AddTrace(uploadableTrace(t, "one", 500, 1)); err != nil || !existed {
		t.Fatalf("idempotent re-upload at bound: existed=%v err=%v", existed, err)
	}

	if !e.RemoveTrace(first.ID) {
		t.Fatal("RemoveTrace failed for resident trace")
	}
	if e.RemoveTrace(first.ID) {
		t.Error("double remove succeeded")
	}
	if _, _, err := e.AddTrace(second); err != nil {
		t.Fatalf("admission after removal: %v", err)
	}
	if _, err := e.RunJob(context.Background(), JobSpec{TraceID: first.ID}); err == nil {
		t.Error("job referencing a removed trace succeeded")
	}
}

// TestAddTraceConcurrentDedup: racing uploads of identical bytes settle
// on one stored entry and one measurement-side admission.
func TestAddTraceConcurrentDedup(t *testing.T) {
	e := testEngine(t, 2)
	const racers = 8
	ids := make([]string, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, _, err := e.AddTrace(uploadableTrace(t, "race", 2000, 99))
			ids[i], errs[i] = info.ID, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("racer %d got ID %q, racer 0 got %q", i, ids[i], ids[0])
		}
	}
	if st := e.Stats(); st.TracesStored != 1 || st.TracesUploaded != 1 {
		t.Errorf("store counts after race: %+v", st)
	}
}

// TestRemovedTraceForgetsRuns: a run over an uploaded trace is
// memoised only while the trace is stored. Upload, one job, delete —
// repeated — must not leave a RunResult resident per cycle.
func TestRemovedTraceForgetsRuns(t *testing.T) {
	e := testEngine(t, 2)
	for i := 0; i < 20; i++ {
		info, _, err := e.AddTrace(uploadableTrace(t, "cycle", 500, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Submit(context.Background(), SweepSpec{TraceIDs: []string{info.ID}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !e.RemoveTrace(info.ID) {
			t.Fatalf("cycle %d: RemoveTrace(%s) = false", i, info.ID)
		}
	}
	if st := e.Stats(); st.TracesStored != 0 || st.RunsExecuted != 20 {
		t.Fatalf("after 20 cycles: %d traces stored, %d runs executed; want 0, 20", st.TracesStored, st.RunsExecuted)
	}
	if n := e.runs.size(); n != 0 {
		t.Errorf("%d runs still memoised for removed traces, want 0", n)
	}
}

func TestSubmitUnknownTraceID(t *testing.T) {
	e := testEngine(t, 2)
	_, err := e.Submit(context.Background(), SweepSpec{TraceIDs: []string{"trace-doesnotexist00"}})
	if err == nil || !strings.Contains(err.Error(), "unknown trace") {
		t.Errorf("submit err = %v, want unknown-trace rejection", err)
	}
	// The synchronous path reports it too.
	if _, err := e.RunJob(context.Background(), JobSpec{TraceID: "trace-doesnotexist00"}); err == nil {
		t.Error("RunJob with unknown trace accepted")
	}
}

func TestJobSpecWorkloadValidation(t *testing.T) {
	if err := (JobSpec{}).Validate(); err == nil {
		t.Error("workload-free spec accepted")
	}
	if err := (JobSpec{Bench: "sha", TraceID: "trace-x"}).Validate(); err == nil {
		t.Error("double-workload spec accepted")
	}
	if err := (JobSpec{TraceID: "trace-x"}).Validate(); err != nil {
		t.Errorf("trace-backed spec rejected statically: %v", err)
	}
	// IDs keep benchmark and trace workloads in disjoint spaces.
	a := JobSpec{Bench: "sha"}.ID()
	b := JobSpec{TraceID: "sha"}.ID()
	if a == b {
		t.Error("bench and trace workload IDs collide")
	}
}
