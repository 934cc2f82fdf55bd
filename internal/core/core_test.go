package core

import (
	"math"
	"sync"
	"testing"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/index"
	"nbticache/internal/power"
	"nbticache/internal/stats"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

func geom(sizeKB int, lineB uint64) cache.Geometry {
	return cache.Geometry{Size: uint64(sizeKB) * 1024, LineSize: lineB, Ways: 1, AddressBits: 32}
}

func testConfig() Config {
	return Config{Geometry: geom(16, 16), Banks: 4, Policy: index.KindIdentity}
}

func smallTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	tr, err := p.Generate(workload.GenParams{
		Geometry: geom(16, 16), Phases: 96, AccessesPerPhase: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var (
	agingOnce  sync.Once
	agingModel *aging.Model
	agingErr   error
)

func sharedAging(t *testing.T) *aging.Model {
	t.Helper()
	agingOnce.Do(func() {
		agingModel, agingErr = aging.New(aging.DefaultConfig())
	})
	if agingErr != nil {
		t.Fatal(agingErr)
	}
	return agingModel
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Geometry.Size = 100 },
		func(c *Config) { c.Geometry.Ways = 3 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.Banks = 3 },
		func(c *Config) { c.Banks = 1 },
		func(c *Config) { c.Policy = "bogus" },
		func(c *Config) { c.Geometry.Ways = c.Geometry.Lines() / 2; c.Banks = 8 }, // index bits < p
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted bad config", i)
		}
	}
}

func TestBreakevenDerivedAndOverride(t *testing.T) {
	pc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if be := pc.breakeven; be < 20 || be > 63 {
		t.Errorf("derived breakeven %d outside paper band", be)
	}
	// The paper's "5- or 6-bit counters suffice".
	if w := pc.width; w < 5 || w > 6 {
		t.Errorf("counter width %d, want 5-6", w)
	}
	cfg := testConfig()
	cfg.BreakevenOverride = 17
	pc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pc.breakeven != 17 {
		t.Errorf("override ignored: %d", pc.breakeven)
	}
}

func TestRegionDecode(t *testing.T) {
	pc, err := New(testConfig()) // 16kB, 1024 lines, 4 banks, 256 lines/bank
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 -> region 0; line 256 -> region 1; line 1023 -> region 3.
	cases := []struct {
		line uint64
		want uint
	}{
		{0, 0}, {255, 0}, {256, 1}, {511, 1}, {512, 2}, {1023, 3},
		{1024, 0}, // wraps with the index
	}
	for _, c := range cases {
		if got := pc.Region(c.line * 16); got != c.want {
			t.Errorf("Region(line %d) = %d, want %d", c.line, got, c.want)
		}
	}
}

// TestMissEquivalenceIdentity verifies §III's third advantage: "no
// degradation of miss rate is experienced" — a partitioned cache with any
// fixed bijective mapping has exactly the monolithic hit/miss behaviour.
func TestMissEquivalenceIdentity(t *testing.T) {
	tr := smallTrace(t, "cjpeg")
	for _, kind := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
		cfg := testConfig()
		cfg.Policy = kind
		pc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pc.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := RunMonolithic(cfg.Geometry, cfg.Tech, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hits != mono.Hits || res.Misses != mono.Misses {
			t.Errorf("%s: hits/misses %d/%d != monolithic %d/%d",
				kind, res.Hits, res.Misses, mono.Hits, mono.Misses)
		}
	}
}

// TestEnergyPolicyIndependent verifies §IV-B1's premise that "the energy
// savings are independent of the re-indexing strategy": with no in-trace
// updates, every policy produces the identical energy breakdown (the
// physical banks see permuted but statistically identical streams; for a
// single epoch the permutation is exact).
func TestEnergyPolicyIndependent(t *testing.T) {
	tr := smallTrace(t, "say")
	var first *RunResult
	for _, kind := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
		cfg := testConfig()
		cfg.Policy = kind
		pc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pc.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Energy != first.Energy {
			t.Errorf("%s energy %+v differs from identity %+v", kind, res.Energy, first.Energy)
		}
		if res.Savings != first.Savings {
			t.Errorf("%s savings %v differs from identity %v", kind, res.Savings, first.Savings)
		}
	}
}

// TestSetAssociativeExtension verifies the set-associative extension:
// hit/miss behaviour still matches the monolithic cache of the same
// associativity for every bijective mapping, and the simulator accepts
// ways up to 4.
func TestSetAssociativeExtension(t *testing.T) {
	tr := smallTrace(t, "dijkstra")
	for _, ways := range []int{2, 4} {
		g := geom(16, 16)
		g.Ways = ways
		cfg := Config{Geometry: g, Banks: 4, Policy: index.KindProbing}
		pc, err := New(cfg)
		if err != nil {
			t.Fatalf("ways=%d: %v", ways, err)
		}
		res, err := pc.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := RunMonolithic(g, power.Tech{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hits != mono.Hits || res.Misses != mono.Misses {
			t.Errorf("ways=%d: partitioned %d/%d vs monolithic %d/%d",
				ways, res.Hits, res.Misses, mono.Hits, mono.Misses)
		}
		// Associativity reduces conflict misses relative to
		// direct-mapped on a pointer-chasing workload.
		dm, err := RunMonolithic(geom(16, 16), power.Tech{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if mono.Misses > dm.Misses {
			t.Errorf("ways=%d has more misses (%d) than direct-mapped (%d)",
				ways, mono.Misses, dm.Misses)
		}
	}
}

// TestUpdatesCostOnlyRefills verifies that in-trace updates add only the
// compulsory refill misses of the flushes, never extra steady-state
// conflicts.
func TestUpdatesCostOnlyRefills(t *testing.T) {
	tr := smallTrace(t, "CRC32")
	base := testConfig()
	base.Policy = index.KindProbing
	pc0, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := pc0.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	withUpdates := base
	withUpdates.UpdateEvery = uint64(tr.Len() / 8)
	pc1, err := New(withUpdates)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := pc1.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Updates < 7 {
		t.Fatalf("expected ~8 updates, got %d", res1.Updates)
	}
	if res1.Misses <= res0.Misses {
		t.Errorf("flushes added no misses: %d vs %d", res1.Misses, res0.Misses)
	}
	// Each flush can at most cost the touched working set again; with 8
	// flushes of a 1024-line cache, the extra misses are bounded.
	extra := res1.Misses - res0.Misses
	if extra > uint64(res1.Updates)*1024 {
		t.Errorf("flush misses %d exceed %d flushed lines", extra, res1.Updates*1024)
	}
}

func TestRunResultAccounting(t *testing.T) {
	tr := smallTrace(t, "sha")
	pc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads+res.Writes != uint64(tr.Len()) {
		t.Errorf("reads+writes = %d, want %d", res.Reads+res.Writes, tr.Len())
	}
	if res.Hits+res.Misses != uint64(tr.Len()) {
		t.Errorf("hits+misses = %d, want %d", res.Hits+res.Misses, tr.Len())
	}
	if res.SpanCycles != tr.Span {
		t.Errorf("span = %d, want %d", res.SpanCycles, tr.Span)
	}
	if len(res.RegionStats) != 4 || len(res.BankStats) != 4 {
		t.Fatal("wrong stat vector lengths")
	}
	if res.HitRate() <= 0.5 {
		t.Errorf("implausible hit rate %v for a cache-resident workload", res.HitRate())
	}
	if res.Energy.Total() <= 0 || res.Baseline.Total() <= 0 {
		t.Error("missing energy")
	}
	if res.Savings <= 0 || res.Savings >= 1 {
		t.Errorf("savings %v outside (0,1)", res.Savings)
	}
	if res.Name != "sha" || res.PolicyName != "identity" || res.Banks != 4 {
		t.Error("metadata wrong")
	}
	if got := res.AverageIdleness(); got <= 0 || got >= 1 {
		t.Errorf("average idleness %v", got)
	}
}

// TestIdentityBankEqualsRegionStats: with the identity mapping the
// physical-bank and logical-region views must agree exactly.
func TestIdentityBankEqualsRegionStats(t *testing.T) {
	tr := smallTrace(t, "gsmd")
	pc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for b := range res.BankStats {
		if res.BankStats[b] != res.RegionStats[b] {
			t.Errorf("bank %d stats diverge from region stats under identity", b)
		}
	}
}

// TestInTraceUpdatesUniformiseBankIdleness: with frequent probing updates
// the physical banks see a mixed stream, so their idleness spread
// narrows relative to the logical regions — the mechanism of §III-A2
// observable within a single trace.
func TestInTraceUpdatesUniformiseBankIdleness(t *testing.T) {
	tr := smallTrace(t, "adpcm.dec") // most skewed signature
	cfg := testConfig()
	cfg.Policy = index.KindProbing
	cfg.UpdateEvery = uint64(tr.Len() / 16)
	pc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	regionIdle := res.RegionUsefulIdleness()
	bankIdle := make([]float64, len(res.BankStats))
	for i, s := range res.BankStats {
		bankIdle[i] = s.UsefulIdleness
	}
	if imbalance(bankIdle) >= imbalance(regionIdle) {
		t.Errorf("updates did not narrow idleness spread: banks %v vs regions %v",
			bankIdle, regionIdle)
	}
}

func imbalance(xs []float64) float64 {
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return (hi - lo) / (sum / float64(len(xs)))
}

func TestAccessAfterFinishRejected(t *testing.T) {
	pc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pc.Access(0, 0x40, trace.Read); err != nil {
		t.Fatal(err)
	}
	if err := pc.Finish(100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pc.Access(101, 0x40, trace.Read); err == nil {
		t.Error("access after Finish accepted")
	}
	if err := pc.Finish(200); err == nil {
		t.Error("double Finish accepted")
	}
}

func TestResultBeforeFinishRejected(t *testing.T) {
	pc, _ := New(testConfig())
	if _, err := pc.Result("x", 0); err == nil {
		t.Error("Result before Finish accepted")
	}
}

func TestRunRejectsBadTraces(t *testing.T) {
	pc, _ := New(testConfig())
	if _, err := pc.Run(&trace.Trace{Name: "empty", Span: 10}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := &trace.Trace{Cycles: []uint64{5, 1}, Addrs: []uint64{0, 0}, Kinds: []trace.Kind{trace.Read, trace.Read}, Span: 10}
	if _, err := pc.Run(bad); err == nil {
		t.Error("unordered trace accepted")
	}
}

func TestRunMonolithic(t *testing.T) {
	tr := smallTrace(t, "lame")
	res, err := RunMonolithic(geom(16, 16), power.Tech{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits+res.Misses != uint64(tr.Len()) {
		t.Error("monolithic accounting broken")
	}
	if res.HitRate() <= 0 {
		t.Error("zero hit rate")
	}
	if res.Energy.Total() <= 0 {
		t.Error("no energy")
	}
	if res.Energy.SleepLeakage != 0 {
		t.Error("unmanaged baseline slept")
	}
	if _, err := RunMonolithic(cache.Geometry{}, power.Tech{}, tr); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestProjectAgingIdentityVsProbing(t *testing.T) {
	model := sharedAging(t)
	duties := []float64{0.02, 0.95, 0.95, 0.04} // adpcm-like skew
	id, err := ProjectAging(model, duties, index.KindIdentity, 64, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProjectAging(model, duties, index.KindProbing, 64, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	if id.PolicyName != "identity" || pr.PolicyName != "probing" {
		t.Error("policy names wrong")
	}
	// Identity: worst bank (2% sleep) pins the lifetime near the cell
	// anchor; probing averages to ~49% sleep.
	if id.LifetimeYears > 3.1 {
		t.Errorf("identity lifetime %v, want ~2.97", id.LifetimeYears)
	}
	want := 2.93 / (1 - 0.49*(1-model.SleepStressRatio()))
	if math.Abs(pr.LifetimeYears-want)/want > 0.02 {
		t.Errorf("probing lifetime %v, want ~%v", pr.LifetimeYears, want)
	}
	if pr.ShareError != 0 {
		t.Errorf("probing share error %v, want 0 at a multiple of M", pr.ShareError)
	}
	if pr.LifetimeYears <= id.LifetimeYears {
		t.Error("re-indexing did not extend lifetime")
	}
	if len(pr.BankDuty) != 4 || len(pr.BankLifetimeYears) != 4 {
		t.Error("vector lengths wrong")
	}
	if m := stats.Mean(pr.BankDuty); math.Abs(m-0.49) > 1e-9 {
		t.Errorf("mean duty %v, want 0.49", m)
	}
}

func TestProjectAgingScramblingCloseToProbing(t *testing.T) {
	model := sharedAging(t)
	duties := []float64{0.1, 0.8, 0.6, 0.3}
	pr, err := ProjectAging(model, duties, index.KindProbing, 4096, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ProjectAging(model, duties, index.KindScrambling, 4096, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B2: "Probing and Scrambling provide de facto identical
	// results" once N is large.
	if rel := math.Abs(sc.LifetimeYears-pr.LifetimeYears) / pr.LifetimeYears; rel > 0.02 {
		t.Errorf("scrambling %v vs probing %v (%.2f%% apart)",
			sc.LifetimeYears, pr.LifetimeYears, rel*100)
	}
	if sc.ShareError <= 0 || sc.ShareError > 0.02 {
		t.Errorf("scrambling share error %v, want small but nonzero", sc.ShareError)
	}
}

func TestProjectAgingErrors(t *testing.T) {
	model := sharedAging(t)
	if _, err := ProjectAging(nil, []float64{0.1, 0.2}, index.KindProbing, 8, aging.VoltageScaled); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := ProjectAging(model, []float64{0.1}, index.KindProbing, 8, aging.VoltageScaled); err == nil {
		t.Error("single region accepted")
	}
	if _, err := ProjectAging(model, []float64{0.1, 2}, index.KindProbing, 8, aging.VoltageScaled); err == nil {
		t.Error("bad duty accepted")
	}
	if _, err := ProjectAging(model, []float64{0.1, 0.2}, index.KindProbing, 0, aging.VoltageScaled); err == nil {
		t.Error("0 epochs accepted")
	}
	if _, err := ProjectAging(model, []float64{0.1, 0.2, 0.3}, index.KindProbing, 8, aging.VoltageScaled); err == nil {
		t.Error("non-power-of-two region count accepted")
	}
}

func TestSummariseAging(t *testing.T) {
	model := sharedAging(t)
	tr := smallTrace(t, "sha")
	pc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := SummariseAging(model, res, index.KindProbing, 64, aging.VoltageScaled)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MonolithicYears != 2.93 {
		t.Errorf("monolithic = %v", sum.MonolithicYears)
	}
	// sha: two nearly-dead regions pin LT0 near the anchor; re-indexing
	// averages ~50% idleness for a big extension.
	if sum.LT0Years < 2.93 || sum.LT0Years > 3.3 {
		t.Errorf("LT0 = %v, want slightly above 2.93", sum.LT0Years)
	}
	if sum.LTYears < 4.0 {
		t.Errorf("LT = %v, want > 4 (paper: 4.48-6.09 for sha)", sum.LTYears)
	}
	if sum.LTExtension <= sum.LT0Extension {
		t.Error("re-indexing extension not larger")
	}
	if _, err := SummariseAging(model, res, index.KindIdentity, 64, aging.VoltageScaled); err == nil {
		t.Error("identity as re-indexing policy accepted")
	}
}
