package workload

import (
	"math"
	"testing"

	"nbticache/internal/cache"
	"nbticache/internal/pmu"
	"nbticache/internal/stats"
	"nbticache/internal/trace"
)

func geom16k() cache.Geometry {
	return cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 18 {
		t.Fatalf("profile count = %d, want the paper's 18", len(ps))
	}
	seen := map[string]bool{}
	var avg float64
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		avg += (p.QuarterIdleness[0] + p.QuarterIdleness[1] + p.QuarterIdleness[2] + p.QuarterIdleness[3]) / 4
	}
	// Table I's bottom-right average.
	avg /= float64(len(ps))
	if math.Abs(avg-0.4171) > 0.001 {
		t.Errorf("signature average %.4f, Table I says 0.4171", avg)
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("sha")
	if !ok || p.Name != "sha" {
		t.Fatal("sha profile missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("bogus name found")
	}
}

func TestNamesOrders(t *testing.T) {
	if n := Names(); n[0] != "adpcm.dec" || len(n) != 18 {
		t.Errorf("Names() wrong: %v", n)
	}
	s := SortedNames()
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("SortedNames not sorted at %d", i)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good, _ := ByName("cjpeg")
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.QuarterIdleness[2] = 1.5
	if bad.Validate() == nil {
		t.Error("idleness > 1 accepted")
	}
	bad = good
	bad.WriteFraction = -0.1
	if bad.Validate() == nil {
		t.Error("negative write fraction accepted")
	}
	bad = good
	bad.JumpProb = 2
	if bad.Validate() == nil {
		t.Error("jump prob > 1 accepted")
	}
	bad = good
	bad.HotProb = 0.9
	bad.JumpProb = 0.5
	if bad.Validate() == nil {
		t.Error("hot+jump > 1 accepted")
	}
}

func TestGenParamsValidate(t *testing.T) {
	gp := DefaultGenParams(geom16k())
	if err := gp.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := gp
	bad.Phases = 0
	if bad.Validate() == nil {
		t.Error("0 phases accepted")
	}
	bad = gp
	bad.AccessesPerPhase = 4
	if bad.Validate() == nil {
		t.Error("tiny phase accepted")
	}
	bad = gp
	bad.Geometry = cache.Geometry{Size: 128, LineSize: 16, Ways: 1, AddressBits: 32}
	if bad.Validate() == nil {
		t.Error("8-line cache accepted")
	}
	bad = gp
	bad.Geometry.Size = 100
	if bad.Validate() == nil {
		t.Error("bad geometry accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("CRC32")
	gp := GenParams{Geometry: geom16k(), Phases: 16, AccessesPerPhase: 64}
	a, err := p.Generate(gp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Span != b.Span {
		t.Fatalf("nondeterministic shape: %d/%d vs %d/%d", a.Len(), a.Span, b.Len(), b.Span)
	}
	for i := range a.Cycles {
		if a.Cycles[i] != b.Cycles[i] || a.Addrs[i] != b.Addrs[i] || a.Kinds[i] != b.Kinds[i] {
			t.Fatalf("nondeterministic at access %d", i)
		}
	}
}

func TestGenerateValidTrace(t *testing.T) {
	p, _ := ByName("dijkstra")
	gp := GenParams{Geometry: geom16k(), Phases: 32, AccessesPerPhase: 128}
	tr, err := p.Generate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Name != "dijkstra" {
		t.Errorf("trace name %q", tr.Name)
	}
	if tr.Span != uint64(32*128*3) {
		t.Errorf("span = %d, want %d", tr.Span, 32*128*3)
	}
	st := trace.ComputeStats(tr, 16)
	if st.Writes == 0 || st.Reads == 0 {
		t.Error("missing reads or writes")
	}
	// Addresses stay within the profile's footprint window.
	if st.MaxAddr-st.MinAddr >= 16*1024 {
		t.Errorf("footprint %d exceeds cache size", st.MaxAddr-st.MinAddr)
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	p, _ := ByName("sha")
	if _, err := p.Generate(GenParams{}); err == nil {
		t.Error("zero params accepted")
	}
	bad := p
	bad.WriteFraction = 7
	if _, err := bad.Generate(DefaultGenParams(geom16k())); err == nil {
		t.Error("bad profile accepted")
	}
}

// measureQuarterIdleness runs the trace through a 4-bank decode and the
// PMU, returning per-quarter useful idleness.
func measureQuarterIdleness(t *testing.T, tr *trace.Trace, g cache.Geometry, banks int, breakeven uint64) []float64 {
	t.Helper()
	pm, err := pmu.New(banks, breakeven)
	if err != nil {
		t.Fatal(err)
	}
	shift := g.IndexBits() - log2(banks)
	for i, a := range tr.Addrs {
		region := int(g.Index(a) >> shift)
		if err := pm.Access(region, tr.Cycles[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.Finish(tr.Span); err != nil {
		t.Fatal(err)
	}
	v, err := pm.UsefulIdlenessVector()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func log2(m int) int {
	p := 0
	for ; m > 1; m >>= 1 {
		p++
	}
	return p
}

// TestSignatureReproduced checks the heart of the substitution: generated
// traces reproduce each benchmark's Table-I idleness signature on a
// 4-bank 16kB cache within a few percentage points.
func TestSignatureReproduced(t *testing.T) {
	if testing.Short() {
		t.Skip("signature sweep is slow")
	}
	g := geom16k()
	gp := GenParams{Geometry: g, Phases: 512, AccessesPerPhase: 512}
	var worst float64
	for _, p := range Profiles() {
		tr, err := p.Generate(gp)
		if err != nil {
			t.Fatal(err)
		}
		got := measureQuarterIdleness(t, tr, g, 4, 60)
		for qi := 0; qi < 4; qi++ {
			diff := math.Abs(got[qi] - p.QuarterIdleness[qi])
			if diff > worst {
				worst = diff
			}
			if diff > 0.06 {
				t.Errorf("%s bank %d: idleness %.4f vs Table I %.4f",
					p.Name, qi, got[qi], p.QuarterIdleness[qi])
			}
		}
	}
	t.Logf("worst per-bank signature deviation: %.3f", worst)
}

// TestBankSweepAverages checks the Table IV shape: average idleness rises
// with bank count — ~15% at M=2, ~42% at M=4, ~58-64% at M=8.
func TestBankSweepAverages(t *testing.T) {
	if testing.Short() {
		t.Skip("bank sweep is slow")
	}
	g := geom16k()
	gp := GenParams{Geometry: g, Phases: 384, AccessesPerPhase: 512}
	bands := map[int][2]float64{
		2: {0.08, 0.22},
		4: {0.36, 0.48},
		8: {0.52, 0.68},
	}
	for _, m := range []int{2, 4, 8} {
		var all []float64
		for _, p := range Profiles() {
			tr, err := p.Generate(gp)
			if err != nil {
				t.Fatal(err)
			}
			v := measureQuarterIdleness(t, tr, g, m, 60)
			all = append(all, stats.Mean(v))
		}
		avg := stats.Mean(all)
		lo, hi := bands[m][0], bands[m][1]
		if avg < lo || avg > hi {
			t.Errorf("M=%d: average idleness %.3f outside paper band [%.2f,%.2f]", m, avg, lo, hi)
		}
		t.Logf("M=%d: average idleness %.3f", m, avg)
	}
}

func TestQuarterTargets(t *testing.T) {
	p, _ := ByName("adpcm.dec")
	q2, err := p.QuarterTargets(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q2[0]-0.0246*0.9998) > 1e-12 {
		t.Errorf("M=2 target %v", q2[0])
	}
	q8, err := p.QuarterTargets(8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q8[0]-math.Sqrt(0.0246)) > 1e-12 {
		t.Errorf("M=8 target %v", q8[0])
	}
	q16, err := p.QuarterTargets(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(q16) != 16 {
		t.Error("M=16 targets wrong length")
	}
	if _, err := p.QuarterTargets(3); err == nil {
		t.Error("M=3 accepted")
	}
}

func BenchmarkGenerate(b *testing.B) {
	p, _ := ByName("lame")
	gp := GenParams{Geometry: geom16k(), Phases: 64, AccessesPerPhase: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(gp); err != nil {
			b.Fatal(err)
		}
	}
}
