package workload

import (
	"fmt"

	"nbticache/internal/cache"
	"nbticache/internal/pmu"
	"nbticache/internal/trace"
)

// Signature is a measured bank-idleness characterisation of a trace — the
// Table-I view of a workload. It closes the loop for real traces: measure
// the signature of an instrumented application, then synthesise
// arbitrarily long statistically-matching traces from the derived
// Profile.
type Signature struct {
	// Banks is the granularity of the measurement.
	Banks int `json:"banks"`
	// UsefulIdleness is the per-bank I_j vector.
	UsefulIdleness []float64 `json:"useful_idleness"`
	// SleepFractions is the per-bank P_j vector.
	SleepFractions []float64 `json:"sleep_fractions"`
	// Breakeven is the threshold used (cycles).
	Breakeven uint64 `json:"breakeven"`
}

// MeasureSignature replays a trace against the bank decode of the given
// geometry and returns its idleness signature. banks must be a power of
// two not exceeding the cache's set count; breakeven must be >= 1.
func MeasureSignature(tr *trace.Trace, g cache.Geometry, banks int, breakeven uint64) (*Signature, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if banks < 2 || banks&(banks-1) != 0 {
		return nil, fmt.Errorf("workload: bank count %d is not a power of two >= 2", banks)
	}
	p := 0
	for m := banks; m > 1; m >>= 1 {
		p++
	}
	if p > g.IndexBits() {
		return nil, fmt.Errorf("workload: %d banks need %d index bits, cache has %d", banks, p, g.IndexBits())
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	pm, err := pmu.New(banks, breakeven)
	if err != nil {
		return nil, err
	}
	shift := uint(g.IndexBits() - p)
	for i, a := range tr.Addrs {
		if err := pm.Access(int(g.Index(a)>>shift), tr.Cycles[i]); err != nil {
			return nil, fmt.Errorf("workload: access %d: %w", i, err)
		}
	}
	if err := pm.Finish(tr.Span); err != nil {
		return nil, err
	}
	useful, err := pm.UsefulIdlenessVector()
	if err != nil {
		return nil, err
	}
	sleep, err := pm.SleepFractionVector()
	if err != nil {
		return nil, err
	}
	return &Signature{
		Banks:          banks,
		UsefulIdleness: useful,
		SleepFractions: sleep,
		Breakeven:      breakeven,
	}, nil
}

// ToProfile converts a measured 4-bank signature into a synthetic profile
// that reproduces it, using the given locality knobs. The measurement
// must have been taken at banks=4 (the Table-I granularity the generator
// is parameterised by).
func (s *Signature) ToProfile(name string, writeFraction, jumpProb, hotProb float64, seed int64) (Profile, error) {
	if s.Banks != 4 {
		return Profile{}, fmt.Errorf("workload: profiles derive from 4-bank signatures, got %d banks", s.Banks)
	}
	p := Profile{
		Name:          name,
		WriteFraction: writeFraction,
		JumpProb:      jumpProb,
		HotProb:       hotProb,
		Seed:          seed,
	}
	copy(p.QuarterIdleness[:], s.UsefulIdleness)
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}
