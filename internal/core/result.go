package core

import (
	"fmt"

	"nbticache/internal/cache"
	"nbticache/internal/pmu"
	"nbticache/internal/power"
	"nbticache/internal/stats"
	"nbticache/internal/trace"
)

// RunResult collects everything a trace simulation measured.
type RunResult struct {
	// Name is the trace name.
	Name string
	// Banks is M.
	Banks int
	// PolicyName is the indexing policy that ran.
	PolicyName string
	// Reads, Writes, Hits, Misses count accesses.
	Reads, Writes uint64
	Hits, Misses  uint64
	// SpanCycles is the simulated duration.
	SpanCycles uint64
	// Updates counts in-trace re-indexing events (each flushed the
	// cache).
	Updates uint64
	// Breakeven is the Block Control threshold used (cycles);
	// CounterWidth the counter size implementing it.
	Breakeven    uint64
	CounterWidth int
	// RegionStats is keyed by logical region (stable across updates);
	// it feeds the aging projection and Table I.
	RegionStats []pmu.BankStats
	// BankStats is keyed by physical bank (what the rails see); it
	// feeds the energy accounting.
	BankStats []pmu.BankStats
	// Energy is the partitioned, power-managed energy; Baseline is the
	// monolithic unmanaged reference; Savings = 1 - Energy/Baseline
	// (the paper's Esav).
	Energy   power.Breakdown
	Baseline power.Breakdown
	Savings  float64
}

// HitRate returns hits over accesses.
func (r *RunResult) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// RegionUsefulIdleness projects the I_j vector of Table I.
func (r *RunResult) RegionUsefulIdleness() []float64 {
	out := make([]float64, len(r.RegionStats))
	for i, s := range r.RegionStats {
		out[i] = s.UsefulIdleness
	}
	return out
}

// RegionSleepFractions projects the per-region sleep duty feeding aging.
func (r *RunResult) RegionSleepFractions() []float64 {
	out := make([]float64, len(r.RegionStats))
	for i, s := range r.RegionStats {
		out[i] = s.SleepFraction
	}
	return out
}

// AverageIdleness is the mean of the per-region useful idleness (the
// "Average" column of Table I).
func (r *RunResult) AverageIdleness() float64 {
	return stats.Mean(r.RegionUsefulIdleness())
}

// DefaultBatchSize is the access-chunk length Run feeds the walk per
// call: long enough to amortise the per-call validation, PMU feed setup
// and counter flush over thousands of accesses.
const DefaultBatchSize = 4096

// Batch sets the chunk length RunColumnsUnchecked feeds the walk per
// call. The walk reads the trace columns in place and keeps no
// per-chunk scratch, so one Batch may serve any number of runs at once.
type Batch struct{ size int }

// NewBatch returns a chunk length of size accesses; size < 1 selects
// DefaultBatchSize.
func NewBatch(size int) *Batch {
	if size < 1 {
		size = DefaultBatchSize
	}
	return &Batch{size: size}
}

// Run validates a trace, drives it through the cache, finishes it at
// the trace span, and assembles the result, including energy against
// the monolithic unmanaged baseline.
func (pc *PartitionedCache) Run(tr *trace.Trace) (*RunResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return pc.run(tr, nil)
}

// RunColumnsUnchecked is Run without the O(n) re-validation pass, for
// callers holding traces already validated at creation (a decoded blob,
// an admitted upload, a generated trace), with buf setting the chunk
// length (nil selects DefaultBatchSize). Immutable traces
// run many times pay validation once instead of per run — on a full
// sweep the pass was ~10% of kernel time, re-checking what the decoders
// had already proven. The kernel still enforces everything that matters
// dynamically: column length parity here, cycle ordering and the span
// bound in the walk itself. Only kind validity is trusted — an invalid
// kind tallies as a read instead of erroring — so traces of unproven
// provenance must go through Run.
//
// The columns feed the walk by slicing: each chunk is three subslices,
// with no per-access copy.
func (pc *PartitionedCache) RunColumnsUnchecked(tr *trace.Trace, buf *Batch) (*RunResult, error) {
	if len(tr.Addrs) != len(tr.Cycles) || len(tr.Kinds) != len(tr.Cycles) {
		return nil, fmt.Errorf("core: column length mismatch: %d cycles, %d addrs, %d kinds",
			len(tr.Cycles), len(tr.Addrs), len(tr.Kinds))
	}
	return pc.run(tr, buf)
}

func (pc *PartitionedCache) run(tr *trace.Trace, buf *Batch) (*RunResult, error) {
	n := tr.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	size := DefaultBatchSize
	if buf != nil && buf.size > 0 {
		size = buf.size
	}
	var hits uint64
	for start := 0; start < n; start += size {
		end := min(start+size, n)
		h, applied, err := pc.accessBatch(tr.Cycles[start:end], tr.Addrs[start:end], tr.Kinds[start:end])
		hits += h
		if err != nil {
			// applied accesses succeeded; start+applied is the offender.
			return nil, fmt.Errorf("core: access %d: %w", start+applied, err)
		}
	}
	if err := pc.Finish(tr.Span); err != nil {
		return nil, err
	}
	return pc.Result(tr.Name, hits)
}

// Result assembles the RunResult after Finish. hits is the hit count
// observed by the driver (Run tracks it; external drivers pass their
// own).
func (pc *PartitionedCache) Result(name string, hits uint64) (*RunResult, error) {
	if !pc.finished {
		return nil, fmt.Errorf("core: Result before Finish")
	}
	regionStats, err := pc.regionPMU.Results()
	if err != nil {
		return nil, err
	}
	bankStats, err := pc.bankPMU.Results()
	if err != nil {
		return nil, err
	}
	res := &RunResult{
		Name:         name,
		Banks:        pc.cfg.Banks,
		PolicyName:   pc.policy.Name(),
		Reads:        pc.reads,
		Writes:       pc.writes,
		Hits:         hits,
		Misses:       pc.reads + pc.writes - hits,
		SpanCycles:   pc.span,
		Updates:      pc.updates,
		Breakeven:    pc.breakeven,
		CounterWidth: pc.width,
		RegionStats:  regionStats,
		BankStats:    bankStats,
	}
	sleep := make([]uint64, len(bankStats))
	wakes := make([]uint64, len(bankStats))
	for i, s := range bankStats {
		sleep[i] = s.SleepCycles
		wakes[i] = s.Wakeups
	}
	usage := power.Usage{
		Reads:       pc.reads,
		Writes:      pc.writes,
		SpanCycles:  pc.span,
		SleepCycles: sleep,
		Wakeups:     wakes,
	}
	res.Energy, err = pc.cfg.Tech.Energy(pc.cfg.Geometry, pc.cfg.Banks, usage)
	if err != nil {
		return nil, err
	}
	res.Baseline, err = pc.cfg.Tech.Energy(pc.cfg.Geometry, 1, power.Usage{
		Reads:      pc.reads,
		Writes:     pc.writes,
		SpanCycles: pc.span,
	})
	if err != nil {
		return nil, err
	}
	res.Savings = power.Savings(res.Baseline, res.Energy)
	return res, nil
}

// MonolithicResult summarises a conventional non-partitioned cache run —
// the reference for the "no degradation of miss rate" claim.
type MonolithicResult struct {
	Name          string
	Hits, Misses  uint64
	Reads, Writes uint64
	SpanCycles    uint64
	Energy        power.Breakdown
}

// HitRate returns hits over accesses.
func (r *MonolithicResult) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// RunMonolithic simulates a conventional unmanaged cache over the trace.
func RunMonolithic(g cache.Geometry, tech power.Tech, tr *trace.Trace) (*MonolithicResult, error) {
	if tech == (power.Tech{}) {
		tech = power.DefaultTech()
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	c, err := cache.New(g)
	if err != nil {
		return nil, err
	}
	res := &MonolithicResult{Name: tr.Name, SpanCycles: tr.Span}
	for i, a := range tr.Addrs {
		if tr.Kinds[i] == trace.Write {
			res.Writes++
		} else {
			res.Reads++
		}
		c.Access(a)
	}
	res.Hits, res.Misses = c.Stats()
	res.Energy, err = tech.Energy(g, 1, power.Usage{
		Reads:      res.Reads,
		Writes:     res.Writes,
		SpanCycles: tr.Span,
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
