package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/index"
	"nbticache/internal/trace"
)

// The differential oracle: the scalar wrapper (one-element batches, every
// boundary exercised at element granularity) and the chunked batch kernel
// must produce bit-identical RunResult and Projection values on the same
// trace — across policies, update cadences that do not align with batch
// sizes, and batch sizes from 1 up.

var (
	oracleModelOnce sync.Once
	oracleModel     *aging.Model
	oracleModelErr  error
)

func oracleAgingModel(t testing.TB) *aging.Model {
	t.Helper()
	oracleModelOnce.Do(func() {
		oracleModel, oracleModelErr = aging.New(aging.DefaultConfig())
	})
	if oracleModelErr != nil {
		t.Fatal(oracleModelErr)
	}
	return oracleModel
}

// oracleTrace builds a deterministic pseudo-random trace with clustered
// addresses (so hits occur), same-cycle runs, and occasional long idle
// gaps (so the PMUs cross the breakeven threshold).
func oracleTrace(seed int64, n int, g cache.Geometry) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "oracle"}
	cycle := uint64(rng.Intn(4))
	hot := uint64(rng.Intn(1 << 12))
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(8) {
		case 0: // random far address
			addr = uint64(rng.Int63()) & (1<<uint(g.AddressBits) - 1)
		case 1: // out of the declared width: uploaded traces are not bounded
			addr = rng.Uint64()
			if rng.Intn(2) == 0 && g.AddressBits < 64 {
				// A hot address with one bit set above the width: it
				// aliases a resident line if a tag store drops that bit.
				addr = hot + uint64(rng.Intn(1<<8)) | 1<<uint(g.AddressBits+rng.Intn(64-g.AddressBits))
			}
		default: // near the hot base: conflict and reuse traffic
			addr = hot + uint64(rng.Intn(1<<8))
		}
		if rng.Intn(64) == 0 {
			hot = uint64(rng.Intn(1 << 14))
		}
		kind := trace.Read
		if rng.Intn(3) == 0 {
			kind = trace.Write
		}
		tr.Append(cycle, addr, kind)
		switch rng.Intn(8) {
		case 0: // long gap past any realistic breakeven
			cycle += uint64(1000 + rng.Intn(5000))
		case 1, 2: // same cycle (dual-issue)
		default:
			cycle += uint64(1 + rng.Intn(4))
		}
	}
	tr.Span = cycle + uint64(1+rng.Intn(2000))
	return tr
}

// runScalarOracle drives the trace through the scalar Access wrapper one
// reference at a time — exactly the pre-batch driving loop.
func runScalarOracle(t testing.TB, cfg Config, tr *trace.Trace) *RunResult {
	t.Helper()
	pc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hits uint64
	for i, c := range tr.Cycles {
		hit, bank, err := pc.Access(c, tr.Addrs[i], tr.Kinds[i])
		if err != nil {
			t.Fatalf("scalar access %d: %v", i, err)
		}
		if int(bank) >= cfg.Banks {
			t.Fatalf("scalar access %d: bank %d out of range", i, bank)
		}
		if hit {
			hits++
		}
	}
	if err := pc.Finish(tr.Span); err != nil {
		t.Fatal(err)
	}
	res, err := pc.Result(tr.Name, hits)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runBatchedOracle(t testing.TB, cfg Config, tr *trace.Trace, batchSize int) *RunResult {
	t.Helper()
	pc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.RunColumnsUnchecked(tr, NewBatch(batchSize))
	if err != nil {
		t.Fatalf("batched run (batch %d): %v", batchSize, err)
	}
	return res
}

func requireIdentical(t *testing.T, label string, scalar, batched *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(scalar, batched) {
		t.Fatalf("%s: scalar and batched results diverge:\nscalar:  %+v\nbatched: %+v", label, scalar, batched)
	}
}

func TestBatchScalarEquivalence(t *testing.T) {
	model := oracleAgingModel(t)
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	assoc := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 2, AddressBits: 32}
	// UpdateEvery values deliberately misaligned with every batch size,
	// including 1 (update after every access) and values straddling one
	// batch (100), several batches (4097) and the whole trace.
	updateEveries := []uint64{0, 1, 3, 7, 100, 1023, 4097}
	batchSizes := []int{1, 3, 64, 1000, 4096, 10000}
	seed := int64(0)
	for _, pol := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
		for _, banks := range []int{2, 8} {
			for _, ue := range updateEveries {
				geom := g
				if ue == 3 {
					geom = assoc // cover the set-associative extension too
				}
				cfg := Config{Geometry: geom, Banks: banks, Policy: pol, UpdateEvery: ue}
				seed++
				tr := oracleTrace(seed, 5000, geom)
				scalar := runScalarOracle(t, cfg, tr)
				for _, bs := range batchSizes {
					batched := runBatchedOracle(t, cfg, tr, bs)
					requireIdentical(t, string(cfg.Policy)+"/batch", scalar, batched)
				}
				// Projections from identical runs must be identical too.
				sp, err := ProjectAging(model, scalar.RegionSleepFractions(), pol, 64, aging.VoltageScaled)
				if err != nil {
					t.Fatal(err)
				}
				bp, err := ProjectAging(model, runBatchedOracle(t, cfg, tr, 512).RegionSleepFractions(), pol, 64, aging.VoltageScaled)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sp, bp) {
					t.Fatalf("projections diverge:\nscalar:  %+v\nbatched: %+v", sp, bp)
				}
			}
		}
	}
}

// TestAccessBatchRandomSplits feeds the same trace through AccessBatch
// split at random points (zero-length sub-batches included) and through
// one whole-trace batch.
func TestAccessBatchRandomSplits(t *testing.T) {
	g := cache.Geometry{Size: 8 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	cfg := Config{Geometry: g, Banks: 4, Policy: index.KindProbing, UpdateEvery: 37}
	tr := oracleTrace(99, 3000, g)
	n := tr.Len()
	cycles, addrs, kinds := tr.Cycles, tr.Addrs, tr.Kinds

	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHits, err := whole.AccessBatch(cycles, addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Finish(tr.Span); err != nil {
		t.Fatal(err)
	}
	want, err := whole.Result(tr.Name, wantHits)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		pc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var hits uint64
		for i := 0; i <= n; {
			j := i + rng.Intn(n-i+1)
			h, err := pc.AccessBatch(cycles[i:j], addrs[i:j], kinds[i:j])
			if err != nil {
				t.Fatal(err)
			}
			hits += h
			if j == n {
				break
			}
			i = j
		}
		if err := pc.Finish(tr.Span); err != nil {
			t.Fatal(err)
		}
		got, err := pc.Result(tr.Name, hits)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "random splits", want, got)
	}
}

func TestAccessBatchAfterFinish(t *testing.T) {
	pc, err := New(Config{Geometry: cache.Geometry{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 32}, Banks: 4, Policy: index.KindProbing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.AccessBatch([]uint64{1}, []uint64{0x40}, []trace.Kind{trace.Read}); err != nil {
		t.Fatal(err)
	}
	if err := pc.Finish(10); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.AccessBatch([]uint64{11}, []uint64{0x40}, []trace.Kind{trace.Read}); !errors.Is(err, ErrFinished) {
		t.Fatalf("batch after Finish: got %v, want ErrFinished", err)
	}
	// The empty batch is rejected after Finish too (the state check runs
	// before the length check, matching the scalar wrapper).
	if _, err := pc.AccessBatch(nil, nil, nil); !errors.Is(err, ErrFinished) {
		t.Fatalf("empty batch after Finish: got %v, want ErrFinished", err)
	}
	if _, _, err := pc.Access(11, 0x40, trace.Read); !errors.Is(err, ErrFinished) {
		t.Fatalf("scalar access after Finish: got %v, want ErrFinished", err)
	}
}

func TestAccessBatchValidation(t *testing.T) {
	pc, err := New(Config{Geometry: cache.Geometry{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 32}, Banks: 4, Policy: index.KindProbing})
	if err != nil {
		t.Fatal(err)
	}
	if hits, err := pc.AccessBatch(nil, nil, nil); err != nil || hits != 0 {
		t.Fatalf("zero-length batch: hits=%d err=%v", hits, err)
	}
	if _, err := pc.AccessBatch([]uint64{1}, []uint64{0x40, 0x80}, []trace.Kind{trace.Read}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// An unordered batch applies the ordered prefix, then fails — and
	// Run names the exact offending access in its error.
	if _, err := pc.AccessBatch([]uint64{10, 5}, []uint64{0x40, 0x80}, []trace.Kind{trace.Read, trace.Read}); err == nil {
		t.Fatal("unordered batch accepted")
	}
	bad := &trace.Trace{Name: "bad"}
	for i := 0; i < 10; i++ {
		bad.Append(uint64(20+i), 0x40, trace.Read)
	}
	bad.Cycles[7] = 1 // out of order at index 7; Validate would catch it, the kernel must too
	fresh, err := New(Config{Geometry: cache.Geometry{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 32}, Banks: 4, Policy: index.KindProbing})
	if err != nil {
		t.Fatal(err)
	}
	var hits uint64
	h, applied, kerr := fresh.accessBatch(bad.Cycles, bad.Addrs, bad.Kinds)
	hits = h
	if kerr == nil || applied != 7 {
		t.Fatalf("unordered at 7: applied=%d err=%v hits=%d", applied, kerr, hits)
	}
	// The prefix access landed: reads counted, cursor advanced.
	if _, _, err := pc.Access(9, 0x40, trace.Read); err == nil {
		t.Fatal("cycle order not enforced across calls after partial batch")
	}
	if _, _, err := pc.Access(10, 0x40, trace.Read); err != nil {
		t.Fatalf("in-order access after partial batch: %v", err)
	}
}

// TestRunColumnsEquivalence is the checked/unchecked oracle: the
// unchecked entry point at any batch size must be bit-identical to the
// validating Run on valid input (the only input it admits), across
// update cadences, for direct-mapped and 2-way banks.
func TestRunColumnsEquivalence(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	assoc := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 2, AddressBits: 32}
	seed := int64(200)
	for _, geom := range []cache.Geometry{g, assoc} {
		for _, ue := range []uint64{0, 3, 1023} {
			for _, bs := range []int{1, 64, 4096, 10000} {
				cfg := Config{Geometry: geom, Banks: 4, Policy: index.KindProbing, UpdateEvery: ue}
				seed++
				tr := oracleTrace(seed, 5000, geom)
				pc, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checked, err := pc.Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "unchecked vs checked", checked, runBatchedOracle(t, cfg, tr, bs))
			}
		}
	}
}

// TestRunColumnsUncheckedLengthParity pins the one check the unchecked
// path must keep: mismatched column lengths are rejected before the
// kernel can index past a shorter column.
func TestRunColumnsUncheckedLengthParity(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	cfg := Config{Geometry: g, Banks: 4, Policy: index.KindProbing}
	pc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := oracleTrace(77, 100, g)
	cols.Kinds = cols.Kinds[:len(cols.Kinds)-1]
	if _, err := pc.RunColumnsUnchecked(cols, nil); err == nil {
		t.Fatal("mismatched column lengths accepted")
	}
}
