package mitigate

import (
	"math"
	"sync"
	"testing"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

var (
	modelOnce sync.Once
	model     *aging.Model
	modelErr  error
)

func sharedModel(t *testing.T) *aging.Model {
	t.Helper()
	modelOnce.Do(func() {
		model, modelErr = aging.New(aging.DefaultConfig())
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func geom16k() cache.Geometry {
	return cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
}

func TestFlippingValidate(t *testing.T) {
	if err := (Flipping{}).Validate(); err == nil {
		t.Error("zero period accepted")
	}
	if err := (Flipping{PeriodCycles: 4096}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFlippingBalancesP0(t *testing.T) {
	f := Flipping{PeriodCycles: 4096}
	for _, raw := range []float64{0, 0.3, 0.5, 0.9, 1} {
		got, err := f.EffectiveP0(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0.5 {
			t.Errorf("EffectiveP0(%v) = %v, want 0.5", raw, got)
		}
	}
	if _, err := f.EffectiveP0(1.5); err == nil {
		t.Error("bad raw p0 accepted")
	}
	if _, err := (Flipping{}).EffectiveP0(0.5); err == nil {
		t.Error("invalid flipper accepted")
	}
}

// TestFlippingRecoversLifetime reproduces [11]'s claim inside our model:
// a skewed workload (p0 = 0.9) ages faster than balanced; flipping
// restores the balanced lifetime.
func TestFlippingRecoversLifetime(t *testing.T) {
	m := sharedModel(t)
	skewed, err := m.Lifetime(0, 0.9, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := m.Lifetime(0, 0.5, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	if skewed >= balanced {
		t.Fatalf("skew did not hurt: %v vs %v", skewed, balanced)
	}
	f := Flipping{PeriodCycles: 1 << 20}
	p0, err := f.EffectiveP0(0.9)
	if err != nil {
		t.Fatal(err)
	}
	flipped, err := m.Lifetime(0, p0, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	if flipped != balanced {
		t.Errorf("flipping gave %v, want the balanced %v", flipped, balanced)
	}
}

func TestFlipEnergyScalesWithFrequency(t *testing.T) {
	tech := power.DefaultTech()
	g := geom16k()
	fast := Flipping{PeriodCycles: 1 << 20}
	slow := Flipping{PeriodCycles: 1 << 24}
	ef, err := fast.FlipEnergy(tech, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	es, err := slow.FlipEnergy(tech, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := ef / es; math.Abs(ratio-16) > 1e-9 {
		t.Errorf("16x faster flipping cost %vx energy, want 16x", ratio)
	}
	if _, err := fast.FlipEnergy(tech, g, -1); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := fast.FlipEnergy(tech, cache.Geometry{}, 1); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := (Flipping{}).FlipEnergy(tech, g, 1); err == nil {
		t.Error("invalid flipper accepted")
	}
	if _, err := fast.FlipEnergy(power.Tech{}, g, 1); err == nil {
		t.Error("bad tech accepted")
	}
}

func lineTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName("cjpeg")
	if !ok {
		t.Fatal("profile missing")
	}
	tr, err := p.Generate(workload.GenParams{
		Geometry: geom16k(), Phases: 96, AccessesPerPhase: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunLineLevel(t *testing.T) {
	tr := lineTrace(t)
	res, err := RunLineLevel(geom16k(), power.DefaultTech(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lines != 1024 {
		t.Fatalf("lines = %d", res.Lines)
	}
	if res.Breakeven < 20 || res.Breakeven > 63 {
		t.Errorf("derived breakeven %d outside band", res.Breakeven)
	}
	if len(res.SleepFractions) != 1024 {
		t.Fatal("wrong vector length")
	}
	// Line-level granularity exposes far more idleness than bank level:
	// cjpeg's 4-bank average is ~37%, its line-level mean must be well
	// above that.
	if res.MeanSleep < 0.5 {
		t.Errorf("line-level mean sleep %.3f suspiciously low", res.MeanSleep)
	}
	if res.MinSleep > res.MeanSleep {
		t.Error("min above mean")
	}
}

func TestLineLevelLifetimes(t *testing.T) {
	m := sharedModel(t)
	tr := lineTrace(t)
	res, err := RunLineLevel(geom16k(), power.DefaultTech(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := res.IdealLifetime(m, 0.5, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	static, err := res.StaticLifetime(m, 0.5, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	if ideal <= static {
		t.Errorf("ideal (%v) not above static (%v)", ideal, static)
	}
	// [7] at line granularity beats the paper's 4-bank coarse-grain
	// results (~4.3 years) — the price of memory-compiler compatibility.
	if ideal < 4.5 {
		t.Errorf("ideal line-level lifetime %v years, expected > coarse-grain", ideal)
	}
}

func TestRunLineLevelErrors(t *testing.T) {
	tr := lineTrace(t)
	if _, err := RunLineLevel(cache.Geometry{}, power.DefaultTech(), tr, 0); err == nil {
		t.Error("bad geometry accepted")
	}
	assoc := geom16k()
	assoc.Ways = 2
	if _, err := RunLineLevel(assoc, power.DefaultTech(), tr, 0); err == nil {
		t.Error("set-associative accepted")
	}
	empty := &trace.Trace{Name: "empty", Span: 10}
	if _, err := RunLineLevel(geom16k(), power.DefaultTech(), empty, 0); err == nil {
		t.Error("empty trace accepted")
	}
}
