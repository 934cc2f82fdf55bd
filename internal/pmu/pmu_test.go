package pmu

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nbticache/internal/hw"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("0 banks accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("0 breakeven accepted")
	}
}

func TestNeverTouchedBankFullyIdle(t *testing.T) {
	p, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Bank 0 touched every 5 cycles (below breakeven), bank 1 never.
	for c := uint64(0); c < 1000; c += 5 {
		if err := p.Access(0, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Finish(1000); err != nil {
		t.Fatal(err)
	}
	res, err := p.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].UsefulIdleness != 0 {
		t.Errorf("busy bank useful idleness = %v, want 0", res[0].UsefulIdleness)
	}
	if res[0].SleepFraction != 0 {
		t.Errorf("busy bank sleep = %v, want 0", res[0].SleepFraction)
	}
	if res[1].UsefulIdleness != 1.0 {
		t.Errorf("untouched bank idleness = %v, want 1", res[1].UsefulIdleness)
	}
	// Sleeps all but the first breakeven cycles.
	if want := float64(1000-10) / 1000; res[1].SleepFraction != want {
		t.Errorf("untouched bank sleep = %v, want %v", res[1].SleepFraction, want)
	}
	if res[1].SleepIntervals != 1 || res[1].Wakeups != 0 {
		t.Errorf("untouched bank intervals/wakeups = %d/%d, want 1/0",
			res[1].SleepIntervals, res[1].Wakeups)
	}
	if res[0].Accesses != 200 || res[1].Accesses != 0 {
		t.Errorf("access counts %d/%d", res[0].Accesses, res[1].Accesses)
	}
}

func TestSingleLongGapAccounting(t *testing.T) {
	p, _ := New(1, 10)
	if err := p.Access(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Access(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(105); err != nil {
		t.Fatal(err)
	}
	res, _ := p.Results()
	// Gap of 100 cycles > 10: useful 100, sleep 90. Tail gap of 5: below
	// breakeven, nothing.
	if got, want := res[0].UsefulIdleness, 100.0/105; math.Abs(got-want) > 1e-12 {
		t.Errorf("useful = %v, want %v", got, want)
	}
	if got, want := res[0].SleepFraction, 90.0/105; math.Abs(got-want) > 1e-12 {
		t.Errorf("sleep = %v, want %v", got, want)
	}
	if res[0].SleepIntervals != 1 || res[0].Wakeups != 1 {
		t.Errorf("intervals/wakeups = %d/%d, want 1/1", res[0].SleepIntervals, res[0].Wakeups)
	}
}

func TestGapExactlyBreakevenDoesNotSleep(t *testing.T) {
	p, _ := New(1, 10)
	p.Access(0, 0)
	p.Access(0, 10) // gap == breakeven: counter reaches threshold just as access arrives
	if err := p.Finish(11); err != nil {
		t.Fatal(err)
	}
	res, _ := p.Results()
	if res[0].SleepIntervals != 0 || res[0].UsefulIdleness != 0 {
		t.Errorf("breakeven-length gap slept: %+v", res[0])
	}
}

func TestAccessValidation(t *testing.T) {
	p, _ := New(2, 5)
	if err := p.Access(2, 0); err == nil {
		t.Error("bank out of range accepted")
	}
	if err := p.Access(-1, 0); err == nil {
		t.Error("negative bank accepted")
	}
	p.Access(0, 100)
	if err := p.Access(1, 50); err == nil {
		t.Error("time travel accepted")
	}
	if err := p.Finish(50); err == nil {
		t.Error("Finish before last access accepted")
	}
	if err := p.Finish(200); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(300); err == nil {
		t.Error("double Finish accepted")
	}
	if err := p.Access(0, 300); err == nil {
		t.Error("access after Finish accepted")
	}
}

func TestResultsBeforeFinish(t *testing.T) {
	p, _ := New(1, 5)
	if _, err := p.Results(); err == nil {
		t.Error("Results before Finish accepted")
	}
}

func TestZeroSpan(t *testing.T) {
	p, _ := New(1, 5)
	if err := p.Finish(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Results(); err == nil {
		t.Error("zero span accepted")
	}
}

func TestHistograms(t *testing.T) {
	p, _ := New(1, 4)
	p.EnableHistograms(0, 100, 10)
	p.Access(0, 0)
	p.Access(0, 50)
	p.Access(0, 52)
	p.Finish(100)
	res, _ := p.Results()
	h := res[0].IdleHistogram
	if h == nil {
		t.Fatal("histogram missing")
	}
	// Gaps observed: 50, 2, 48 (tail).
	if h.Total() != 3 {
		t.Errorf("histogram total = %d, want 3", h.Total())
	}
}

func TestVectors(t *testing.T) {
	p, _ := New(2, 5)
	p.Access(0, 0)
	p.Finish(100)
	u, err := p.UsefulIdlenessVector()
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.SleepFractionVector()
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 2 || len(s) != 2 {
		t.Fatal("wrong vector lengths")
	}
	if u[0] != 1.0 || u[1] != 1.0 {
		t.Errorf("useful = %v", u)
	}
	if s[0] != 0.95 || s[1] != 0.95 {
		t.Errorf("sleep = %v", s)
	}
}

func TestVectorsBeforeFinishError(t *testing.T) {
	p, _ := New(1, 5)
	if _, err := p.UsefulIdlenessVector(); err == nil {
		t.Error("vector before Finish accepted")
	}
	if _, err := p.SleepFractionVector(); err == nil {
		t.Error("vector before Finish accepted")
	}
}

// Property: for any access pattern, per-bank sleep time never exceeds
// useful idleness, both stay within [0,1] of the span, and wakeups never
// exceed sleep intervals.
func TestPMUInvariantsProperty(t *testing.T) {
	f := func(pattern []uint8, tailGap uint8) bool {
		p, err := New(4, 7)
		if err != nil {
			return false
		}
		cycle := uint64(0)
		for _, b := range pattern {
			cycle += uint64(b%13) + 1
			if err := p.Access(int(b%4), cycle); err != nil {
				return false
			}
		}
		end := cycle + uint64(tailGap) + 1
		if err := p.Finish(end); err != nil {
			return false
		}
		res, err := p.Results()
		if err != nil {
			return false
		}
		for _, r := range res {
			if r.SleepFraction > r.UsefulIdleness+1e-12 {
				return false
			}
			if r.UsefulIdleness < 0 || r.UsefulIdleness > 1 {
				return false
			}
			if r.Wakeups > r.SleepIntervals {
				return false
			}
			if r.SleepCycles != uint64(r.SleepFraction*float64(end)+0.5) &&
				float64(r.SleepCycles) != r.SleepFraction*float64(end) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMatchesCycleAccurateBlockControl cross-checks the event-driven PMU
// against the gate-level saturating counters of internal/hw on a random
// access pattern: the total asleep time per bank must agree exactly when
// breakeven = counter saturation value.
func TestMatchesCycleAccurateBlockControl(t *testing.T) {
	const (
		banks = 4
		width = 4 // counter saturates at 15
		span  = 5000
	)
	be := uint64(1<<width - 1)
	bc, err := hw.NewBlockControl(banks, width)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(banks, be)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	sleepCycles := make([]uint64, banks)
	for cycle := uint64(0); cycle < span; cycle++ {
		var onehot uint
		if rng.Float64() < 0.3 { // 30% of cycles carry an access
			b := rng.Intn(banks)
			// Skew the distribution so banks differ.
			if rng.Float64() < 0.5 {
				b = 0
			}
			onehot = 1 << b
			if err := p.Access(b, cycle); err != nil {
				t.Fatal(err)
			}
		}
		mask := bc.Tick(onehot)
		for b := 0; b < banks; b++ {
			if mask&(1<<b) != 0 {
				sleepCycles[b]++
			}
		}
	}
	if err := p.Finish(span); err != nil {
		t.Fatal(err)
	}
	res, err := p.Results()
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < banks; b++ {
		got := uint64(res[b].SleepFraction * span)
		// The hardware counter asserts terminal count on the cycle it
		// saturates; the interval model counts from saturation to the
		// next access. They agree exactly by construction.
		if want := sleepCycles[b]; got != want {
			t.Errorf("bank %d: PMU sleep %d cycles, hardware %d", b, got, want)
		}
	}
}

// TestScalarSentinelWrapping pins errors.Is on Access's wrapped errors:
// the API boundary keeps the contextual message, and callers still
// match on the sentinel.
func TestScalarSentinelWrapping(t *testing.T) {
	p, _ := New(2, 5)
	if err := p.Access(5, 0); !errors.Is(err, ErrBankRange) {
		t.Fatalf("got %v, want wrapped ErrBankRange", err)
	}
	if err := p.Access(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.Access(1, 50); !errors.Is(err, ErrUnordered) {
		t.Fatalf("got %v, want wrapped ErrUnordered", err)
	}
	if err := p.Finish(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Access(0, 101); !errors.Is(err, ErrFinished) {
		t.Fatalf("got %v, want ErrFinished", err)
	}
}
