package nbticache

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
)

var (
	facadeOnce  sync.Once
	facadeModel *AgingModel
	facadeErr   error
)

func facadeAging(t *testing.T) *AgingModel {
	t.Helper()
	facadeOnce.Do(func() {
		facadeModel, facadeErr = NewAgingModel()
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeModel
}

func TestQuickstartFlow(t *testing.T) {
	model := facadeAging(t)
	g := Geometry16kB()
	tr, err := GenerateTrace("sha", g)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := New(Config{Geometry: g, Banks: 4, Policy: Probing})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Lifetimes(model, res)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MonolithicYears != 2.93 {
		t.Errorf("monolithic = %v", sum.MonolithicYears)
	}
	if !(sum.LTYears > sum.LT0Years && sum.LT0Years >= sum.MonolithicYears) {
		t.Errorf("lifetime ordering broken: %v <= %v <= %v",
			sum.MonolithicYears, sum.LT0Years, sum.LTYears)
	}
	if res.Savings <= 0.3 || res.Savings >= 0.6 {
		t.Errorf("16kB energy savings %v outside plausible band", res.Savings)
	}
}

func TestBenchmarksAndProfiles(t *testing.T) {
	names := Benchmarks()
	if len(names) != 18 {
		t.Fatalf("benchmark count = %d", len(names))
	}
	p, err := Profile("dijkstra")
	if err != nil || p.Name != "dijkstra" {
		t.Fatalf("Profile: %v, %v", p, err)
	}
	if _, err := Profile("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNewGeometry(t *testing.T) {
	g := NewGeometry(32, 32)
	if g.Size != 32*1024 || g.LineSize != 32 {
		t.Errorf("geometry wrong: %+v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMonolithicFacade(t *testing.T) {
	tr, err := GenerateTrace("CRC32", Geometry16kB())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMonolithic(Geometry16kB(), DefaultTech(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate() <= 0 {
		t.Error("no hits")
	}
}

func TestProjectAgingFacade(t *testing.T) {
	model := facadeAging(t)
	proj, err := ProjectAging(model, []float64{0.1, 0.9, 0.5, 0.3}, Probing, 64, VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.93 / (1 - 0.45*(1-model.SleepStressRatio()))
	if math.Abs(proj.LifetimeYears-want)/want > 0.02 {
		t.Errorf("projection %v, want ~%v", proj.LifetimeYears, want)
	}
}

func TestPowerGatedAblation(t *testing.T) {
	model := facadeAging(t)
	vs, err := ProjectAging(model, []float64{0.4, 0.4, 0.4, 0.4}, Probing, 16, VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := ProjectAging(model, []float64{0.4, 0.4, 0.4, 0.4}, Probing, 16, PowerGated)
	if err != nil {
		t.Fatal(err)
	}
	if pg.LifetimeYears <= vs.LifetimeYears {
		t.Errorf("power gating (%v) not better than voltage scaling (%v)",
			pg.LifetimeYears, vs.LifetimeYears)
	}
}

func TestMeasureSignatureFacade(t *testing.T) {
	tr, err := GenerateTrace("mad", Geometry16kB())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := MeasureSignature(tr, Geometry16kB(), 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.UsefulIdleness) != 4 {
		t.Fatal("wrong signature length")
	}
	p, err := sig.ToProfile("mad-resynth", 0.25, 0.1, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mad-resynth" {
		t.Error("profile name lost")
	}
}

func TestTechniqueComparisonFacade(t *testing.T) {
	s, err := NewSuite(true)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := s.RunTechniqueComparison("sha", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Rows) == 0 {
		t.Fatal("empty comparison")
	}
	line, err := RunLineLevel(Geometry16kB(), DefaultTech(), mustTrace(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if line.MeanSleep <= 0 {
		t.Error("line-level run degenerate")
	}
}

func mustTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateTrace("CRC32", Geometry16kB())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewSuiteQuick(t *testing.T) {
	s, err := NewSuite(true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Aging == nil {
		t.Error("suite missing aging model")
	}
}

// TestUploadTraceFacade exercises the real-trace onboarding loop at the
// facade: encode a trace through the streaming codec, decode it back,
// admit it into an engine, and sweep over it by content address.
func TestUploadTraceFacade(t *testing.T) {
	tr := mustTrace(t)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Len() != tr.Len() || decoded.Span != tr.Span {
		t.Fatalf("codec round trip lost shape: %d/%d vs %d/%d",
			decoded.Len(), decoded.Span, tr.Len(), tr.Span)
	}

	e, err := NewEngine(EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	info, existed, err := UploadTrace(e, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if existed || info.Signature == nil {
		t.Fatalf("bad admission: existed=%v info=%+v", existed, info)
	}
	wantID, err := TraceContentID(tr)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != wantID {
		t.Errorf("content address %q, want %q", info.ID, wantID)
	}

	res, err := Sweep(context.Background(), e, SweepSpec{TraceIDs: []string{info.ID}, Banks: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Failed() {
		t.Fatalf("trace-backed sweep failed: %+v", res.Jobs)
	}
	if res.Jobs[0].Projection.LifetimeYears <= 0 {
		t.Error("degenerate lifetime from uploaded trace")
	}
}
