package workload

import (
	"fmt"
	"math"
	"math/rand"

	"nbticache/internal/cache"
	"nbticache/internal/trace"
)

// Subregions is the granularity of the generative model: 4 subregions per
// Table-I quarter. It divides every supported bank count (2, 4, 8, 16).
const Subregions = 16

// GenParams controls trace generation.
type GenParams struct {
	// Geometry fixes the index space the trace targets (the footprint
	// tracks the cache size; see DESIGN.md §2 — the paper reports
	// idleness as size-insensitive, which this preserves by
	// construction).
	Geometry cache.Geometry
	// Phases is the number of scheduling phases K. More phases tighten
	// the match to the idleness signature (sampling error ~ 1/sqrt(K)).
	Phases int
	// AccessesPerPhase is the nominal access budget P of one phase; a
	// phase always spans P*3 cycles even when fewer accesses are
	// emitted.
	AccessesPerPhase int
}

// DefaultGenParams returns generation parameters balancing signature
// accuracy (~1-2 percentage points) against trace size (~0.4M accesses).
func DefaultGenParams(g cache.Geometry) GenParams {
	return GenParams{Geometry: g, Phases: 640, AccessesPerPhase: 1024}
}

// Validate reports parameter errors.
func (gp GenParams) Validate() error {
	if err := gp.Geometry.Validate(); err != nil {
		return err
	}
	if gp.Geometry.Lines() < Subregions {
		return fmt.Errorf("workload: cache has %d lines, need >= %d", gp.Geometry.Lines(), Subregions)
	}
	if gp.Phases < 1 {
		return fmt.Errorf("workload: need >= 1 phase, got %d", gp.Phases)
	}
	if gp.AccessesPerPhase < Subregions {
		return fmt.Errorf("workload: %d accesses per phase cannot cover %d subregions",
			gp.AccessesPerPhase, Subregions)
	}
	return nil
}

// gapCycles is the inter-access spacing (uniform 2..4, mean 3), chosen so
// a worst-case round-robin over all 16 subregions keeps an active bank's
// idle gaps below the ~60-cycle breakeven time.
const (
	gapMin  = 2
	gapSpan = 3 // {2,3,4}
	gapMean = 3
)

// Generate produces the benchmark's trace for the given parameters.
func (p Profile) Generate(gp GenParams) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := gp.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	schedules := buildSchedules(p, gp.Phases, rng)

	g := gp.Geometry
	lines := uint64(g.Lines())
	linesPerSub := lines / Subregions
	// Base offset: a profile-specific multiple of the cache size keeps
	// the index mapping intact while giving each benchmark its own
	// address neighbourhood.
	base := (uint64(p.Seed) % 256) * g.Size * 4

	// Per-subregion locality state.
	cursor := make([]uint64, Subregions)
	hot := make([]uint64, Subregions)
	for s := range cursor {
		cursor[s] = uint64(rng.Int63n(int64(linesPerSub)))
		hot[s] = uint64(rng.Int63n(int64(linesPerSub)))
	}

	// A phase emits at most its access budget, and a phase with no
	// active subregion emits nothing, so the columns are sized once for
	// the active phases: no regrowth garbage while generating, and
	// little unused capacity (under 1% at DefaultGenParams) held for
	// the trace's lifetime, since traces are cached.
	budget := 0
	for phase := 0; phase < gp.Phases; phase++ {
		for s := 0; s < Subregions; s++ {
			if schedules[s][phase] {
				budget += gp.AccessesPerPhase
				break
			}
		}
	}
	tr := &trace.Trace{
		Name:   p.Name,
		Cycles: make([]uint64, 0, budget),
		Addrs:  make([]uint64, 0, budget),
		Kinds:  make([]trace.Kind, 0, budget),
	}
	phaseCycles := uint64(gp.AccessesPerPhase) * gapMean
	active := make([]int, 0, Subregions)
	for phase := 0; phase < gp.Phases; phase++ {
		phaseStart := uint64(phase) * phaseCycles
		active = active[:0]
		for s := 0; s < Subregions; s++ {
			if schedules[s][phase] {
				active = append(active, s)
			}
		}
		if len(active) == 0 {
			continue // whole-cache idle phase; the clock still advances
		}
		cycle := phaseStart
		emitted := 0
		for emitted < gp.AccessesPerPhase {
			// Shuffled round-robin over the active subregions bounds
			// any active bank's idle gap to ~len(active)*gapMax cycles.
			rng.Shuffle(len(active), func(i, j int) {
				active[i], active[j] = active[j], active[i]
			})
			for _, s := range active {
				if emitted >= gp.AccessesPerPhase {
					break
				}
				cycle += uint64(gapMin + rng.Intn(gapSpan))
				if cycle >= phaseStart+phaseCycles {
					emitted = gp.AccessesPerPhase
					break
				}
				addr := p.nextAddr(rng, s, cursor, hot, linesPerSub, g.LineSize, base)
				kind := trace.Read
				if rng.Float64() < p.WriteFraction {
					kind = trace.Write
				}
				tr.Append(cycle, addr, kind)
				emitted++
			}
		}
	}
	tr.Span = uint64(gp.Phases) * phaseCycles
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return tr, nil
}

// nextAddr advances subregion s's locality state and returns the next
// byte address.
func (p Profile) nextAddr(rng *rand.Rand, s int, cursor, hot []uint64, linesPerSub, lineSize uint64, base uint64) uint64 {
	var line uint64
	r := rng.Float64()
	switch {
	case r < p.HotProb:
		line = hot[s]
	case r < p.HotProb+p.JumpProb:
		cursor[s] = uint64(rng.Int63n(int64(linesPerSub)))
		line = cursor[s]
	default:
		cursor[s] = (cursor[s] + 1) % linesPerSub
		line = cursor[s]
	}
	globalLine := uint64(s)*linesPerSub + line
	offset := uint64(rng.Intn(int(lineSize/4))) * 4 // word-aligned within the line
	return base + globalLine*lineSize + offset
}

// buildSchedules produces, for each subregion, a boolean activity
// schedule over the phases: exactly round(a*K) active phases (at least
// one when the target activity is non-zero), shuffled independently per
// subregion. a = 1 - Iq^(1/4) where Iq is the quarter's idleness target.
func buildSchedules(p Profile, phases int, rng *rand.Rand) [][]bool {
	out := make([][]bool, Subregions)
	for s := 0; s < Subregions; s++ {
		q := s / (Subregions / 4)
		activity := 1 - math.Pow(p.QuarterIdleness[q], 1.0/4.0)
		n := int(math.Round(activity * float64(phases)))
		if n < 1 && p.QuarterIdleness[q] < 1 {
			n = 1 // compulsory presence: every subregion is touched eventually
		}
		if n > phases {
			n = phases
		}
		sched := make([]bool, phases)
		for i := 0; i < n; i++ {
			sched[i] = true
		}
		rng.Shuffle(phases, func(i, j int) {
			sched[i], sched[j] = sched[j], sched[i]
		})
		out[s] = sched
	}
	return out
}

// QuarterTargets returns the idleness signature this profile aims for at
// the given bank count, derived from the quarter model: for M=4 the
// Table-I values themselves; for M=2 products of quarter pairs; for M=8
// square roots; for M=16 fourth roots. Used by tests and reports.
func (p Profile) QuarterTargets(banksM int) ([]float64, error) {
	q := p.QuarterIdleness
	switch banksM {
	case 2:
		return []float64{q[0] * q[1], q[2] * q[3]}, nil
	case 4:
		return []float64{q[0], q[1], q[2], q[3]}, nil
	case 8:
		out := make([]float64, 8)
		for i := range out {
			out[i] = math.Sqrt(q[i/2])
		}
		return out, nil
	case 16:
		out := make([]float64, 16)
		for i := range out {
			out[i] = math.Pow(q[i/4], 0.25)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("workload: no idleness targets for %d banks", banksM)
	}
}
