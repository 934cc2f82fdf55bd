package mitigate

import (
	"fmt"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/pmu"
	"nbticache/internal/stats"
	"nbticache/internal/trace"
)

// LineLevelResult summarises a line-granularity power-management run —
// the [7] architecture in which every cache line is its own power
// domain and dynamic indexing distributes idleness uniformly over lines.
type LineLevelResult struct {
	// Lines is the number of power domains.
	Lines int
	// Breakeven is the per-line threshold used (cycles).
	Breakeven uint64
	// SleepFractions is the measured per-line sleep duty.
	SleepFractions []float64
	// MeanSleep and MinSleep summarise the distribution; ideal dynamic
	// indexing gives every line the mean, no re-indexing leaves the
	// minimum as the cache lifetime limiter.
	MeanSleep float64
	MinSleep  float64
}

// RunLineLevel replays a trace against a direct-mapped cache where each
// line sleeps independently after breakeven idle cycles. breakeven 0
// derives the threshold from the energy model with one power domain per
// line.
func RunLineLevel(g cache.Geometry, tech powerTech, tr *trace.Trace, breakeven uint64) (*LineLevelResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Ways != 1 {
		return nil, fmt.Errorf("mitigate: line-level management is defined for direct-mapped caches")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("mitigate: empty trace")
	}
	if breakeven == 0 {
		be, err := tech.BreakevenCycles(g, g.Lines())
		if err != nil {
			return nil, err
		}
		breakeven = uint64(be)
		if breakeven < 1 {
			breakeven = 1
		}
	}
	pm, err := pmu.New(g.Lines(), breakeven)
	if err != nil {
		return nil, err
	}
	for i, a := range tr.Addrs {
		if err := pm.Access(int(g.Index(a)), tr.Cycles[i]); err != nil {
			return nil, fmt.Errorf("mitigate: access %d: %w", i, err)
		}
	}
	if err := pm.Finish(tr.Span); err != nil {
		return nil, err
	}
	fracs, err := pm.SleepFractionVector()
	if err != nil {
		return nil, err
	}
	return &LineLevelResult{
		Lines:          g.Lines(),
		Breakeven:      breakeven,
		SleepFractions: fracs,
		MeanSleep:      stats.Mean(fracs),
		MinSleep:       stats.Min(fracs),
	}, nil
}

// powerTech is the slice of power.Tech the line-level runner needs;
// defined as an interface so tests can stub the breakeven derivation.
type powerTech interface {
	BreakevenCycles(g cache.Geometry, banksM int) (float64, error)
}

// IdealLifetime evaluates the [7] upper bound: with ideal (uniform)
// line-level dynamic indexing every line's long-term duty is the mean
// sleep fraction, so all lines — and the cache — live lifetime(mean).
func (r *LineLevelResult) IdealLifetime(model *aging.Model, p0 float64, mode aging.SleepMode) (float64, error) {
	return model.Lifetime(r.MeanSleep, p0, mode)
}

// StaticLifetime evaluates line-level power management without
// re-indexing: the busiest line pins the cache at lifetime(min).
func (r *LineLevelResult) StaticLifetime(model *aging.Model, p0 float64, mode aging.SleepMode) (float64, error) {
	return model.Lifetime(r.MinSleep, p0, mode)
}
