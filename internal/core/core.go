// Package core implements the paper's contribution: the M-block uniformly
// partitioned cache with coarse-grain dynamic indexing (Figs. 1-3). It
// composes the substrates — decoder hardware models (internal/hw), the
// time-varying indexing policies (internal/index), per-bank tag stores
// (internal/cache), the breakeven power-management unit (internal/pmu)
// and the energy model (internal/power) — into a trace-driven simulator,
// and projects the measured idleness into multi-year bank lifetimes
// through the aging characterisation (internal/aging).
//
// Structure of a simulated access (Fig. 1b / Fig. 2):
//
//	index  = (addr / lineSize) mod 2^n
//	region = index >> (n-p)            // p MSBs
//	line   = index & (2^(n-p) - 1)     // routed to every bank
//	bank   = f(region)                 // f() = Identity/Probing/Scrambling
//	1-hot select activates the bank; Block Control counters track
//	idleness and drop idle banks to Vdd,low after the breakeven time.
//
// One walk simulates every access, whatever the associativity: it
// decodes the region with a precomputed shift, reads f() from a
// per-epoch bank table, accounts the region- and bank-keyed Block
// Control counters inline, and probes the bank's tag store. The tests
// pin it bit for bit to a naive per-access model of the structure above.
//
// An `update` event re-parameterises f() and flushes the cache, exactly
// as §III-A3 prescribes.
package core

import (
	"errors"
	"fmt"

	"nbticache/internal/cache"
	"nbticache/internal/hw"
	"nbticache/internal/index"
	"nbticache/internal/pmu"
	"nbticache/internal/power"
	"nbticache/internal/trace"
)

// ErrFinished is returned for any access simulated after Finish. The
// walk checks it once per batch and returns the bare sentinel;
// errors.Is matches it wherever Run wraps it with trace context.
var ErrFinished = errors.New("core: access after Finish")

// Config assembles a partitioned cache.
type Config struct {
	// Geometry is the overall cache organisation (the paper uses
	// direct-mapped; Ways=1).
	Geometry cache.Geometry
	// Banks is M, a power of two in [2, 256].
	Banks int
	// Policy selects the dynamic-indexing function f().
	Policy index.Kind
	// Tech is the energy model; zero value means power.DefaultTech().
	Tech power.Tech
	// BreakevenOverride forces the Block Control threshold (cycles);
	// 0 derives it from the energy model.
	BreakevenOverride uint64
	// UpdateEvery fires a re-indexing update (and cache flush) every
	// that many accesses during trace simulation; 0 disables in-trace
	// updates (the realistic setting: updates are ~daily, far apart
	// relative to any trace).
	UpdateEvery uint64
	// LFSRSeed seeds the Scrambling policy (ignored otherwise);
	// 0 means 1.
	LFSRSeed uint
}

// normalised fills defaults.
func (c Config) normalised() Config {
	if c.Tech == (power.Tech{}) {
		c.Tech = power.DefaultTech()
	}
	if c.LFSRSeed == 0 {
		c.LFSRSeed = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.normalised()
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Banks < 2 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("core: bank count %d is not a power of two >= 2", c.Banks)
	}
	// The paper's architecture is direct-mapped; set-associative
	// organisations are supported as an extension — the p MSBs of the
	// set index select the bank, and each bank keeps the original
	// associativity over Sets/M sets.
	if log2(c.Banks) > c.Geometry.IndexBits() {
		return fmt.Errorf("core: %d banks need %d index bits, cache has %d",
			c.Banks, log2(c.Banks), c.Geometry.IndexBits())
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	switch c.Policy {
	case index.KindIdentity, index.KindProbing, index.KindScrambling:
	default:
		return fmt.Errorf("core: unknown policy %q", c.Policy)
	}
	return nil
}

func log2(m int) int {
	p := 0
	for ; m > 1; m >>= 1 {
		p++
	}
	return p
}

// PartitionedCache is a live simulation instance. Not safe for concurrent
// use; run one per goroutine.
type PartitionedCache struct {
	cfg       Config
	policy    index.Policy
	banks     []*cache.Cache
	encoder   *hw.OneHotEncoder
	regionPMU *pmu.PMU // keyed by logical region (pre-f); feeds aging projection
	bankPMU   *pmu.PMU // keyed by physical bank (post-f); feeds energy accounting
	breakeven uint64
	width     int

	// regionShift is the total right shift from a byte address to the
	// region bits (offset + line-index bits); regionMask is M-1. Both
	// are fixed by the geometry, so the batch kernel decodes a region
	// with one shift and one mask.
	regionShift uint
	regionMask  uint64
	// bankTable materialises f() for the current epoch: bankTable[r] is
	// the physical bank hosting region r. The policy's Map is an
	// interface call, so the kernel pays it M times per update instead
	// of once per access; rebuildBankTable re-derives the table (and
	// re-checks the policy's range contract through the 1-hot encoder)
	// after every Update.
	bankTable []int32
	// untilUpdate counts accesses remaining until the next in-trace
	// re-indexing update fires; meaningful only when cfg.UpdateEvery > 0.
	// The former per-access `count % UpdateEvery` is now a subtraction
	// per batch segment.
	untilUpdate uint64

	// directTags is each bank's flattened tag-word array when the banks
	// are direct-mapped (the paper's organisation), with the shared
	// address splits captured once at New from the cache's Direct
	// views, so the walk probes the tag store inline. It is nil for
	// set-associative banks, which the walk probes through their
	// cache.Cache.
	directTags [][]uint64
	dOff, dIdx uint
	dIdxMask   uint64
	dTagMask   uint64

	// one-element buffers backing the scalar Access wrapper.
	s1cycle, s1addr [1]uint64
	s1kind          [1]trace.Kind

	reads, writes uint64
	updates       uint64
	finished      bool
	span          uint64
}

// New builds a partitioned cache from the configuration.
func New(cfg Config) (*PartitionedCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalised()
	var pol index.Policy
	var err error
	switch cfg.Policy {
	case index.KindScrambling:
		pol, err = index.NewScrambling(cfg.Banks, index.DefaultLFSRWidth, cfg.LFSRSeed)
	default:
		pol, err = index.New(cfg.Policy, cfg.Banks)
	}
	if err != nil {
		return nil, err
	}
	p := log2(cfg.Banks)
	enc, err := hw.NewOneHotEncoder(p)
	if err != nil {
		return nil, err
	}
	be := cfg.BreakevenOverride
	if be == 0 {
		beF, err := cfg.Tech.BreakevenCycles(cfg.Geometry, cfg.Banks)
		if err != nil {
			return nil, err
		}
		be = uint64(beF)
		if be < 1 {
			be = 1
		}
	}
	regionPMU, err := pmu.New(cfg.Banks, be)
	if err != nil {
		return nil, err
	}
	bankPMU, err := pmu.New(cfg.Banks, be)
	if err != nil {
		return nil, err
	}
	bankGeom := cache.Geometry{
		Size:        cfg.Geometry.Size / uint64(cfg.Banks),
		LineSize:    cfg.Geometry.LineSize,
		Ways:        cfg.Geometry.Ways,
		AddressBits: cfg.Geometry.AddressBits,
	}
	banks := make([]*cache.Cache, cfg.Banks)
	for i := range banks {
		b, err := cache.New(bankGeom)
		if err != nil {
			return nil, err
		}
		banks[i] = b
	}
	pc := &PartitionedCache{
		cfg:         cfg,
		policy:      pol,
		banks:       banks,
		encoder:     enc,
		regionPMU:   regionPMU,
		bankPMU:     bankPMU,
		breakeven:   be,
		width:       power.CounterWidth(float64(be)),
		regionShift: uint(cfg.Geometry.OffsetBits() + cfg.Geometry.IndexBits() - p),
		regionMask:  uint64(cfg.Banks - 1),
		bankTable:   make([]int32, cfg.Banks),
		untilUpdate: cfg.UpdateEvery,
	}
	if dt, ok := banks[0].Direct(); ok {
		// All banks share one geometry, so the splits come from bank 0
		// and only the tag arrays are per-bank. The views alias each
		// bank's live store: Update's flush clears them in place.
		pc.directTags = make([][]uint64, cfg.Banks)
		for i, b := range banks {
			v, _ := b.Direct()
			pc.directTags[i] = v.Tags
		}
		pc.dOff, pc.dIdx = dt.OffBits, dt.IdxBits
		pc.dIdxMask, pc.dTagMask = dt.IdxMask, dt.TagMask
	}
	pc.rebuildBankTable()
	return pc, nil
}

// rebuildBankTable re-derives the region->bank table from the policy.
// Each mapping still passes through the 1-hot encoder — the real
// datapath of Fig. 1b, whose Encode panics on an out-of-range bank — so
// the policy's range contract is enforced exactly once per epoch instead
// of once per access.
func (pc *PartitionedCache) rebuildBankTable() {
	for r := range pc.bankTable {
		b := pc.policy.Map(uint(r))
		pc.encoder.Encode(b)
		pc.bankTable[r] = int32(b)
	}
}

// Region returns the logical region (p MSBs of the index) of addr.
func (pc *PartitionedCache) Region(addr uint64) uint {
	return uint((addr >> pc.regionShift) & pc.regionMask)
}

// Access simulates one reference. It returns whether it hit and which
// physical bank served it. It is a thin wrapper over a one-element
// AccessBatch, so scalar and batched calls run the same walk.
func (pc *PartitionedCache) Access(cycle, addr uint64, kind trace.Kind) (hit bool, bank uint, err error) {
	if pc.finished {
		return false, 0, ErrFinished
	}
	// The bank is resolved before the batch runs: an UpdateEvery
	// boundary fires after the triggering access, so the pre-update
	// mapping is the one that served it.
	b := pc.bankTable[pc.Region(addr)]
	pc.s1cycle[0], pc.s1addr[0], pc.s1kind[0] = cycle, addr, kind
	hits, err := pc.AccessBatch(pc.s1cycle[:], pc.s1addr[:], pc.s1kind[:])
	if err != nil {
		return false, 0, err
	}
	return hits == 1, uint(b), nil
}

// AccessBatch simulates len(addrs) references in trace order and returns
// how many hit. It is the simulation kernel: validation runs once per
// batch (Finish state, slice lengths) or once per element as a bare
// predictable branch (cycle order), the region/bank decode is a shift,
// a mask and a table load, and the counters accumulate in locals with a
// single flush to the struct fields.
//
// A batch that crosses one or more UpdateEvery boundaries is split into
// segments at each boundary so the re-indexing update (and its cache
// flush and bank-table rebuild) fires between exactly the same two
// accesses as under the scalar API.
//
// On error, every access before the offending element has been applied
// and counted; the offending element and its successors have not. The
// error wraps a pmu sentinel (pmu.ErrUnordered for cycle-order
// violations) or is ErrFinished.
func (pc *PartitionedCache) AccessBatch(cycles, addrs []uint64, kinds []trace.Kind) (hits uint64, err error) {
	hits, _, err = pc.accessBatch(cycles, addrs, kinds)
	return hits, err
}

// accessBatch additionally reports how many accesses were applied, so
// Run can name the exact offending access in its error.
//
// It is the one access walk, for every geometry: per element it
// decodes the region and bank, accounts both PMUs' idle intervals, and
// probes the bank's tag store — inline for a direct-mapped bank, through
// the bank's cache.Cache for a set-associative one. Accesses reach each
// bank in trace order either way, so the LRU state a bank sees does not
// depend on how the trace is chunked. A naive per-access model of
// Figs. 1-2 (reference_test.go) pins the walk bit for bit.
func (pc *PartitionedCache) accessBatch(cycles, addrs []uint64, kinds []trace.Kind) (hits uint64, applied int, err error) {
	if pc.finished {
		return 0, 0, ErrFinished
	}
	n := len(addrs)
	if len(cycles) != n || len(kinds) != n {
		return 0, 0, fmt.Errorf("core: batch length mismatch: %d cycles, %d addrs, %d kinds",
			len(cycles), n, len(kinds))
	}
	if n == 0 {
		return 0, 0, nil
	}
	rf, err := pc.regionPMU.BatchFeed()
	if err != nil {
		return 0, 0, err
	}
	bf, err := pc.bankPMU.BatchFeed()
	if err != nil {
		return 0, 0, err
	}
	shift, mask, table := pc.regionShift, pc.regionMask, pc.bankTable
	off, ib := pc.dOff, pc.dIdx
	im, tm := pc.dIdxMask, pc.dTagMask
	tags, banks := pc.directTags, pc.banks
	// Both PMUs carry the same Block Control threshold and, fed in
	// lockstep, the same cursor.
	be := rf.Breakeven
	rl, ru, rs, ri, ra := rf.Last, rf.Useful, rf.Sleep, rf.Intervals, rf.Accesses
	bl, bu, bs, bi, ba := bf.Last, bf.Useful, bf.Sleep, bf.Intervals, bf.Accesses
	var reads, writes uint64
	prev := rf.Cursor
	i := 0
	for i < n {
		// Segment up to the next re-indexing boundary.
		end := n
		if pc.cfg.UpdateEvery > 0 && uint64(end-i) > pc.untilUpdate {
			end = i + int(pc.untilUpdate)
		}
		j := i
		var unordered bool
		var badCycle uint64
		for ; j < end; j++ {
			c := cycles[j]
			if c < prev {
				unordered, badCycle = true, c
				break
			}
			prev = c
			a := addrs[j]
			r := (a >> shift) & mask
			b := table[r]
			// Region PMU: close a >breakeven idle gap, stamp, count.
			if s := rl[r]; c > s {
				if gap := c - s; gap > be {
					ru[r] += gap
					rs[r] += gap - be
					ri[r]++
				}
			}
			rl[r] = c
			ra[r]++
			// Bank PMU, same accounting keyed by the physical bank.
			if s := bl[b]; c > s {
				if gap := c - s; gap > be {
					bu[b] += gap
					bs[b] += gap - be
					bi[b]++
				}
			}
			bl[b] = c
			ba[b]++
			if tags != nil {
				// Direct-mapped probe: one load, one compare, fill on miss.
				la := a >> off
				word := ((la>>ib)&tm)<<1 | 1
				t := tags[b]
				if set := la & im; t[set] == word {
					hits++
				} else {
					t[set] = word
				}
			} else if banks[b].Access(a) {
				hits++
			}
			if kinds[j] == trace.Write {
				writes++
			} else {
				reads++
			}
		}
		if unordered {
			err = fmt.Errorf("%w: access at cycle %d after cycle %d", pmu.ErrUnordered, badCycle, prev)
		}
		// The update countdown covers the accesses that were applied,
		// even on a partial segment, so an error leaves the same state a
		// scalar call sequence would have.
		if pc.cfg.UpdateEvery > 0 {
			pc.untilUpdate -= uint64(j - i)
			if pc.untilUpdate == 0 {
				pc.Update()
			}
		}
		i = j
		if err != nil {
			break
		}
	}
	// One flush: local tallies to the struct fields, the walk's cursor
	// to both PMUs.
	pc.reads += reads
	pc.writes += writes
	pc.regionPMU.EndFeed(prev)
	pc.bankPMU.EndFeed(prev)
	return hits, i, err
}

// Update fires the re-indexing update: f() advances and the entire cache
// is flushed ("every time the indexing is updated ... a cache flush is
// required"). The region->bank table is re-derived for the new epoch and
// the UpdateEvery countdown restarts, so the next in-trace update fires
// UpdateEvery accesses after this one.
func (pc *PartitionedCache) Update() {
	pc.policy.Update()
	for _, b := range pc.banks {
		b.Flush()
	}
	pc.updates++
	pc.rebuildBankTable()
	pc.untilUpdate = pc.cfg.UpdateEvery
}

// Finish closes the simulation at endCycle (normally the trace span).
func (pc *PartitionedCache) Finish(endCycle uint64) error {
	if pc.finished {
		return fmt.Errorf("core: Finish called twice")
	}
	if err := pc.regionPMU.Finish(endCycle); err != nil {
		return err
	}
	if err := pc.bankPMU.Finish(endCycle); err != nil {
		return err
	}
	pc.span = endCycle
	pc.finished = true
	return nil
}
