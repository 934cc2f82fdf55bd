package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nbticache/internal/cache"
	"nbticache/internal/index"
	"nbticache/internal/pmu"
	"nbticache/internal/trace"
)

// The reference model is a deliberately naive, per-access reading of the
// paper's Fig. 1-2, sharing nothing with the walk but the configuration:
// the region is the p MSBs of Geometry.Index, f() is a fresh policy's Map
// called on every access, each bank keeps its own LRU list of full line
// addresses per set, and Block Control is the scalar pmu.Access, which
// TestMatchesCycleAccurateBlockControl pins to hw.BlockControl. An update
// (every UpdateEvery accesses) advances f() and flushes every bank.

// refBank is one bank's tag store: for each set, the resident line
// addresses from least to most recently used.
type refBank struct {
	ways int
	sets map[uint64][]uint64
}

// access looks line up in set, making it the most recently used, and
// reports whether it was resident. A miss in a full set evicts the
// least recently used line.
func (b *refBank) access(set, line uint64) bool {
	lines := b.sets[set]
	i := slices.Index(lines, line)
	if i >= 0 {
		lines = slices.Delete(lines, i, i+1)
	} else if len(lines) == b.ways {
		lines = lines[1:]
	}
	b.sets[set] = append(lines, line)
	return i >= 0
}

// refResult is what the reference measures: the RunResult fields the
// walk produces, everything else being derived from them.
type refResult struct {
	Reads, Writes, Hits, Misses, Updates uint64
	RegionStats, BankStats               []pmu.BankStats
}

func resultOf(r *RunResult) refResult {
	return refResult{
		Reads: r.Reads, Writes: r.Writes, Hits: r.Hits, Misses: r.Misses, Updates: r.Updates,
		RegionStats: r.RegionStats, BankStats: r.BankStats,
	}
}

// runReference simulates tr through the reference model and closes it
// at tr.Span.
func runReference(t testing.TB, cfg Config, tr *trace.Trace) refResult {
	t.Helper()
	cfg = cfg.normalised()
	g := cfg.Geometry
	var pol index.Policy
	var err error
	if cfg.Policy == index.KindScrambling {
		pol, err = index.NewScrambling(cfg.Banks, index.DefaultLFSRWidth, cfg.LFSRSeed)
	} else {
		pol, err = index.New(cfg.Policy, cfg.Banks)
	}
	if err != nil {
		t.Fatal(err)
	}
	be := cfg.BreakevenOverride
	if be == 0 {
		cycles, err := cfg.Tech.BreakevenCycles(g, cfg.Banks)
		if err != nil {
			t.Fatal(err)
		}
		be = max(uint64(cycles), 1)
	}
	regionPMU, err := pmu.New(cfg.Banks, be)
	if err != nil {
		t.Fatal(err)
	}
	bankPMU, err := pmu.New(cfg.Banks, be)
	if err != nil {
		t.Fatal(err)
	}
	p := 0
	for 1<<p < cfg.Banks {
		p++
	}
	setsPerBank := uint64(g.Sets() / cfg.Banks)
	banks := make([]refBank, cfg.Banks)
	flush := func() {
		for i := range banks {
			banks[i] = refBank{ways: g.Ways, sets: map[uint64][]uint64{}}
		}
	}
	flush()

	var res refResult
	for i, addr := range tr.Addrs {
		cycle := tr.Cycles[i]
		region := uint(g.Index(addr) >> (g.IndexBits() - p))
		bank := pol.Map(region)
		if err := regionPMU.Access(int(region), cycle); err != nil {
			t.Fatalf("reference access %d: %v", i, err)
		}
		if err := bankPMU.Access(int(bank), cycle); err != nil {
			t.Fatalf("reference access %d: %v", i, err)
		}
		if banks[bank].access(g.Index(addr)%setsPerBank, g.LineAddr(addr)) {
			res.Hits++
		} else {
			res.Misses++
		}
		if tr.Kinds[i] == trace.Write {
			res.Writes++
		} else {
			res.Reads++
		}
		if cfg.UpdateEvery > 0 && uint64(i+1)%cfg.UpdateEvery == 0 {
			pol.Update()
			flush()
			res.Updates++
		}
	}
	if err := regionPMU.Finish(tr.Span); err != nil {
		t.Fatal(err)
	}
	if err := bankPMU.Finish(tr.Span); err != nil {
		t.Fatal(err)
	}
	if res.RegionStats, err = regionPMU.Results(); err != nil {
		t.Fatal(err)
	}
	if res.BankStats, err = bankPMU.Results(); err != nil {
		t.Fatal(err)
	}
	return res
}

func requireReference(t *testing.T, label string, want refResult, got *RunResult) {
	t.Helper()
	if g := resultOf(got); !reflect.DeepEqual(g, want) {
		t.Fatalf("%s: walk diverges from the reference model:\nreference: %+v\nwalk:      %+v", label, want, g)
	}
}

// walkChunked drives tr through the walk in chunks of size accesses, as
// run does, stopping at the first error. applied counts the accesses
// the walk applied before it stopped.
func walkChunked(pc *PartitionedCache, tr *trace.Trace, size int) (hits uint64, applied int, err error) {
	n := tr.Len()
	for start := 0; start < n; start += size {
		end := min(start+size, n)
		h, a, err := pc.accessBatch(tr.Cycles[start:end], tr.Addrs[start:end], tr.Kinds[start:end])
		hits += h
		if err != nil {
			return hits, start + a, err
		}
	}
	return hits, n, nil
}

var refWays = []int{1, 2, 4}

// TestFusedGeneralEquivalence pins the one fused walk, over the general
// geometries (direct-mapped, 2-way and 4-way banks), to the reference
// model: every policy, bank count and update cadence, at chunk sizes
// that do and do not align with the cadence.
func TestFusedGeneralEquivalence(t *testing.T) {
	seed := int64(100)
	for _, ways := range refWays {
		g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: ways, AddressBits: 32}
		for _, pol := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
			for _, banks := range []int{2, 4, 8} {
				for _, ue := range []uint64{0, 1, 7, 100, 4097} {
					cfg := Config{Geometry: g, Banks: banks, Policy: pol, UpdateEvery: ue}
					seed++
					tr := oracleTrace(seed, 5000, g)
					want := runReference(t, cfg, tr)
					for _, size := range []int{1, 7, 64, DefaultBatchSize} {
						label := fmt.Sprintf("%d-way %s M=%d every %d, chunk %d", ways, pol, banks, ue, size)
						requireReference(t, label, want, runBatchedOracle(t, cfg, tr, size))
					}
				}
			}
		}
	}
}

// TestFusedGeneralPartialApplication pins the walk's partial
// application: a batch stopped by an unordered access applies exactly
// the accesses before it, so the cache, finished there, equals the
// reference run over that prefix — and the cursor still enforces the
// last applied cycle.
func TestFusedGeneralPartialApplication(t *testing.T) {
	const bad = 123
	for _, ways := range refWays {
		g := cache.Geometry{Size: 1024, LineSize: 16, Ways: ways, AddressBits: 32}
		cfg := Config{Geometry: g, Banks: 4, Policy: index.KindProbing, UpdateEvery: 5}
		tr := oracleTrace(7, 200, g)
		tr.Cycles[bad] = 0
		prefix := &trace.Trace{
			Name:   tr.Name,
			Cycles: tr.Cycles[:bad],
			Addrs:  tr.Addrs[:bad],
			Kinds:  tr.Kinds[:bad],
			Span:   tr.Span,
		}
		want := runReference(t, cfg, prefix)
		for _, size := range []int{1, 7, 64, 1000} {
			pc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hits, applied, err := walkChunked(pc, tr, size)
			if applied != bad || !errors.Is(err, pmu.ErrUnordered) {
				t.Fatalf("ways %d chunk %d: applied %d, err %v; want %d, ErrUnordered", ways, size, applied, err, bad)
			}
			if _, _, err := pc.Access(tr.Cycles[bad-1]-1, 0x40, trace.Read); !errors.Is(err, pmu.ErrUnordered) {
				t.Fatalf("ways %d chunk %d: cursor regressed after the partial batch: %v", ways, size, err)
			}
			if err := pc.Finish(tr.Span); err != nil {
				t.Fatal(err)
			}
			got, err := pc.Result(tr.Name, hits)
			if err != nil {
				t.Fatal(err)
			}
			requireReference(t, fmt.Sprintf("%d-way partial batch, chunk %d", ways, size), want, got)
		}
	}
}

// FuzzBatchEquivalence lets the fuzzer pick the trace, update cadence,
// chunk size, policy, bank count and associativity; the chunked walk
// must match the reference model bit for bit.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(64), uint8(0))
	f.Add(int64(2), uint16(3), uint16(1), uint8(1))
	f.Add(int64(3), uint16(4097), uint16(4096), uint8(2))
	f.Add(int64(4), uint16(1), uint16(7), uint8(5))
	f.Add(int64(5), uint16(7), uint16(100), uint8(0x21))
	f.Add(int64(6), uint16(0), uint16(3), uint8(0x52))
	f.Fuzz(func(t *testing.T, seed int64, updateEvery uint16, batchSize uint16, sel uint8) {
		kinds := []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling}
		banks := []int{2, 4}
		cfg := Config{
			Geometry: cache.Geometry{
				Size: 4 * 1024, LineSize: 16, AddressBits: 32,
				Ways: refWays[int(sel>>5)%len(refWays)],
			},
			Banks:       banks[int(sel>>4)%len(banks)],
			Policy:      kinds[int(sel)%len(kinds)],
			UpdateEvery: uint64(updateEvery),
		}
		tr := oracleTrace(seed, 2000, cfg.Geometry)
		label := fmt.Sprintf("%+v, chunk %d", cfg, batchSize)
		requireReference(t, label, runReference(t, cfg, tr), runBatchedOracle(t, cfg, tr, int(batchSize)))
	})
}
