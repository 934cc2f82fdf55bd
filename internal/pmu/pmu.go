// Package pmu is the behavioural power-management unit of the partitioned
// cache: the interval-level twin of the Block Control hardware of Fig. 1b.
// It tracks per-bank idle intervals against the breakeven time and
// accumulates the two quantities the paper's evaluation is built on:
//
//   - useful idleness I_j: the time-weighted share of idle intervals
//     longer than the breakeven time (§III-A2), the "energy saving
//     potential" of bank j;
//   - sleep fraction P_j: the share of total time the bank actually
//     spends in the low-power state (the counter must run for breakeven
//     cycles before the rail drops, so P_j < I_j).
//
// The implementation is event-driven (one update per access) rather than
// cycle-driven, so multi-million-cycle traces simulate in milliseconds;
// the equivalence with the cycle-accurate hw.BlockControl is established
// by a cross-check test.
package pmu

import (
	"errors"
	"fmt"

	"nbticache/internal/stats"
)

// Sentinel errors. Access wraps them with the offending bank/cycle for
// context, and core's access walk wraps ErrUnordered the same way, so
// errors.Is matches them wherever they surface.
var (
	// ErrFinished is returned for any access recorded after Finish.
	ErrFinished = errors.New("pmu: access after Finish")
	// ErrBankRange is returned for a bank outside [0, Banks()).
	ErrBankRange = errors.New("pmu: bank out of range")
	// ErrUnordered is returned when access cycles decrease.
	ErrUnordered = errors.New("pmu: accesses out of cycle order")
)

// PMU tracks idle intervals for a set of banks.
//
// A bank's last-access cycle starts at 0 and a never-touched bank idles
// from cycle 0, so `last` alone carries the interval state — there is no
// separate touched flag to maintain in the hot loop.
type PMU struct {
	banks     int
	breakeven uint64

	last      []uint64 // cycle of most recent access, per bank (0 before any)
	accesses  []uint64
	useful    []uint64 // cycles in idle intervals > breakeven
	sleep     []uint64 // cycles actually spent asleep
	intervals []uint64 // number of sleep episodes (= wake-ups, bar the last)
	hist      []*stats.Histogram
	histOn    bool
	cursor    uint64
	finished  bool
	endCycle  uint64
}

// New builds a PMU for the given bank count and breakeven time in cycles.
// breakeven must be >= 1: a zero breakeven would mean free transitions,
// which the architecture never has.
func New(banks int, breakeven uint64) (*PMU, error) {
	if banks < 1 {
		return nil, fmt.Errorf("pmu: need >= 1 bank, got %d", banks)
	}
	if breakeven < 1 {
		return nil, fmt.Errorf("pmu: breakeven %d must be >= 1 cycle", breakeven)
	}
	return &PMU{
		banks:     banks,
		breakeven: breakeven,
		last:      make([]uint64, banks),
		accesses:  make([]uint64, banks),
		useful:    make([]uint64, banks),
		sleep:     make([]uint64, banks),
		intervals: make([]uint64, banks),
		hist:      make([]*stats.Histogram, banks),
	}, nil
}

// EnableHistograms allocates per-bank idle-interval histograms with the
// given bucketing (in cycles). Call before the first Access.
func (p *PMU) EnableHistograms(lo, hi float64, buckets int) {
	for i := range p.hist {
		p.hist[i] = stats.NewHistogram(lo, hi, buckets)
	}
	p.histOn = true
}

// Access records an access to bank at the given cycle. Cycles must be
// non-decreasing across calls (they come from a validated trace). Errors
// wrap the package sentinels, with context; nothing allocates on the
// success path.
func (p *PMU) Access(bank int, cycle uint64) error {
	if p.finished {
		return ErrFinished
	}
	if bank < 0 || bank >= p.banks {
		return fmt.Errorf("%w: bank %d outside [0,%d)", ErrBankRange, bank, p.banks)
	}
	if cycle < p.cursor {
		return fmt.Errorf("%w: access at cycle %d after cycle %d", ErrUnordered, cycle, p.cursor)
	}
	p.cursor = cycle
	p.closeInterval(bank, cycle)
	p.last[bank] = cycle
	p.accesses[bank]++
	return nil
}

// Feed is a PMU's per-bank accounting state as plain slices: the view
// core's access walk uses to account idle intervals inline with the
// decode that produces the bank keys, instead of a call per access. The
// slices alias the PMU's own arrays. The walk must feed only
// cycle-ordered accesses with in-range keys, apply exactly Access's
// per-element accounting, and report the cycle of the last applied
// access through EndFeed when it stops (normally or at its first
// out-of-order element).
type Feed struct {
	// Last[b] is bank b's most-recent-access cycle; Useful, Sleep and
	// Intervals accumulate >Breakeven idle gaps exactly as Access
	// does; Accesses counts references.
	Last, Useful, Sleep, Intervals, Accesses []uint64
	// Breakeven is the sleep threshold in cycles.
	Breakeven uint64
	// Cursor is the cycle-order bound the first fed access must meet.
	Cursor uint64
}

// BatchFeed returns the accounting view for a walk. It refuses after
// Finish, with ErrFinished, and with idle histograms enabled, which a
// walk does not maintain.
func (p *PMU) BatchFeed() (Feed, error) {
	if p.finished {
		return Feed{}, ErrFinished
	}
	if p.histOn {
		return Feed{}, errors.New("pmu: batch feed with idle histograms enabled")
	}
	return Feed{
		Last:      p.last,
		Useful:    p.useful,
		Sleep:     p.sleep,
		Intervals: p.intervals,
		Accesses:  p.accesses,
		Breakeven: p.breakeven,
		Cursor:    p.cursor,
	}, nil
}

// EndFeed closes a walk, advancing the cursor to the cycle of the
// last access the walk applied. A cursor at or behind the current one
// is a no-op (a walk that applied nothing must not regress it).
func (p *PMU) EndFeed(cursor uint64) {
	if cursor > p.cursor {
		p.cursor = cursor
	}
}

// closeInterval accounts the idle gap ending now for the bank. Banks
// never touched idle from cycle 0 (their last-access cycle is 0).
func (p *PMU) closeInterval(bank int, now uint64) {
	start := p.last[bank]
	if now <= start {
		return
	}
	gap := now - start
	if p.hist[bank] != nil {
		p.hist[bank].Add(float64(gap))
	}
	if gap > p.breakeven {
		p.useful[bank] += gap
		p.sleep[bank] += gap - p.breakeven
		p.intervals[bank]++
	}
}

// Finish closes the trailing idle interval of every bank at endCycle (the
// trace span) and freezes the PMU. It must be called exactly once.
func (p *PMU) Finish(endCycle uint64) error {
	if p.finished {
		return fmt.Errorf("pmu: Finish called twice")
	}
	if endCycle < p.cursor {
		return fmt.Errorf("pmu: end cycle %d before last access %d", endCycle, p.cursor)
	}
	for b := 0; b < p.banks; b++ {
		p.closeInterval(b, endCycle)
	}
	p.endCycle = endCycle
	p.finished = true
	return nil
}

// BankStats summarises one bank after Finish.
type BankStats struct {
	// Accesses is the number of references decoded to this bank.
	Accesses uint64
	// UsefulIdleness is I_j: time in >breakeven idle intervals over
	// total time.
	UsefulIdleness float64
	// SleepFraction is P_j: time actually asleep over total time.
	SleepFraction float64
	// SleepCycles is the raw asleep time (SleepFraction * span, exact).
	SleepCycles uint64
	// SleepIntervals is the number of sleep episodes (power-down
	// transitions).
	SleepIntervals uint64
	// Wakeups is the number of power-up transitions (one per episode,
	// except an episode still open at the end of the trace).
	Wakeups uint64
	// IdleHistogram is non-nil if EnableHistograms was called.
	IdleHistogram *stats.Histogram
}

// Results returns per-bank statistics. It errors before Finish or on a
// zero-length span.
func (p *PMU) Results() ([]BankStats, error) {
	if !p.finished {
		return nil, fmt.Errorf("pmu: Results before Finish")
	}
	if p.endCycle == 0 {
		return nil, fmt.Errorf("pmu: zero-length span")
	}
	out := make([]BankStats, p.banks)
	span := float64(p.endCycle)
	for b := range out {
		wake := p.intervals[b]
		// The final interval (after the last access, or the whole trace
		// for an untouched bank) never wakes up.
		lastStart := p.last[b]
		if wake > 0 && p.endCycle-lastStart > p.breakeven {
			wake--
		}
		out[b] = BankStats{
			Accesses:       p.accesses[b],
			UsefulIdleness: float64(p.useful[b]) / span,
			SleepFraction:  float64(p.sleep[b]) / span,
			SleepCycles:    p.sleep[b],
			SleepIntervals: p.intervals[b],
			Wakeups:        wake,
			IdleHistogram:  p.hist[b],
		}
	}
	return out, nil
}

// UsefulIdlenessVector is a convenience projection of Results.
func (p *PMU) UsefulIdlenessVector() ([]float64, error) {
	res, err := p.Results()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.UsefulIdleness
	}
	return out, nil
}

// SleepFractionVector is a convenience projection of Results.
func (p *PMU) SleepFractionVector() ([]float64, error) {
	res, err := p.Results()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.SleepFraction
	}
	return out, nil
}
