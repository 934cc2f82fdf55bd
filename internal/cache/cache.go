// Package cache provides the trace-driven cache model underneath the
// partitioned architecture: geometry arithmetic (index/offset/tag splits),
// a tag store with hit/miss accounting, and flush support. The paper
// assumes a direct-mapped cache ("a direct-mapped cache with L = 2^n
// lines"); set-associativity is supported for generality and used by the
// extension experiments.
package cache

import (
	"fmt"
	"math/bits"
)

// Geometry fixes a cache organisation. All sizes are in bytes and must be
// powers of two.
type Geometry struct {
	// Size is the total data capacity in bytes.
	Size uint64
	// LineSize is the line (block) size in bytes.
	LineSize uint64
	// Ways is the associativity; 1 means direct-mapped.
	Ways int
	// AddressBits bounds the physical address, fixing the tag width.
	AddressBits int
}

// Validate reports geometry errors.
func (g Geometry) Validate() error {
	switch {
	case g.Size == 0 || g.Size&(g.Size-1) != 0:
		return fmt.Errorf("cache: size %d is not a power of two", g.Size)
	case g.LineSize == 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d is not a power of two", g.LineSize)
	case g.LineSize > g.Size:
		return fmt.Errorf("cache: line size %d exceeds cache size %d", g.LineSize, g.Size)
	case g.Ways < 1:
		return fmt.Errorf("cache: associativity %d must be >= 1", g.Ways)
	case g.Ways&(g.Ways-1) != 0:
		return fmt.Errorf("cache: associativity %d is not a power of two", g.Ways)
	case uint64(g.Ways) > g.Size/g.LineSize:
		return fmt.Errorf("cache: associativity %d exceeds line count %d", g.Ways, g.Size/g.LineSize)
	case g.AddressBits < 1 || g.AddressBits > 64:
		return fmt.Errorf("cache: address width %d outside [1,64]", g.AddressBits)
	}
	if g.IndexBits()+g.OffsetBits() > g.AddressBits {
		return fmt.Errorf("cache: index (%d) + offset (%d) bits exceed address width %d",
			g.IndexBits(), g.OffsetBits(), g.AddressBits)
	}
	return nil
}

// Every quantity below is a power of two, so the derived getters are
// pure shift arithmetic — they sit on simulation hot paths (per-access
// index/tag splits in this package, region decode in internal/core,
// signature measurement in internal/workload) where the former
// divisions were measurable.

// Lines returns L, the number of cache lines.
func (g Geometry) Lines() int { return int(g.Size >> uint(bits.TrailingZeros64(g.LineSize))) }

// Sets returns the number of sets (Lines for a direct-mapped cache).
func (g Geometry) Sets() int { return g.Lines() >> uint(bits.TrailingZeros(uint(g.Ways))) }

// OffsetBits returns log2(LineSize).
func (g Geometry) OffsetBits() int { return bits.TrailingZeros64(g.LineSize) }

// IndexBits returns log2(Sets) — the paper's n for a direct-mapped cache.
func (g Geometry) IndexBits() int { return bits.TrailingZeros64(uint64(g.Sets())) }

// TagBits returns the tag width per line, including the valid bit.
func (g Geometry) TagBits() int {
	return g.AddressBits - g.IndexBits() - g.OffsetBits() + 1
}

// TagArrayBytes returns the total tag storage, rounded up per line.
func (g Geometry) TagArrayBytes() uint64 {
	perLine := (uint64(g.TagBits()) + 7) / 8
	return perLine * uint64(g.Lines())
}

// LineAddr returns the line-granular address (addr / LineSize).
func (g Geometry) LineAddr(addr uint64) uint64 { return addr >> g.OffsetBits() }

// Index returns the set index of addr.
func (g Geometry) Index(addr uint64) uint64 {
	return g.LineAddr(addr) & uint64(g.Sets()-1)
}

// Cache is a tag store with LRU replacement. It models only presence (the
// simulator never needs data contents).
//
// The store is flattened for the simulation hot path: each line holds a
// single tag word — the stored tag shifted left once with the valid bit
// in bit 0 — so a lookup is one load and one compare, with 0 as the
// "invalid" sentinel (no tag word is 0 because bit 0 is always set on a
// valid line). The index/offset/tag splits are precomputed at New, and
// the direct-mapped organisation (the paper's architecture) skips the
// way scan and the LRU stamp bookkeeping entirely.
type Cache struct {
	ways    int
	offBits uint
	idxBits uint
	idxMask uint64 // Sets-1
	tagMask uint64 // every address bit above the index/offset split (see New)
	tags    []uint64
	stamp   []uint64 // LRU timestamps (associative organisations only)
	clock   uint64
	hits    uint64
	misses  uint64
}

// New builds an empty cache.
func New(g Geometry) (*Cache, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Sets() * g.Ways
	// The stored tag spans every address bit above the index/offset
	// split — not just the AddressBits-derived width — so addresses
	// beyond the declared width still compare by their full remaining
	// tag, exactly as the pre-flattening full-width compare did (an
	// uploaded trace's uint64 addresses are not bounded by the job
	// geometry's AddressBits). The shift into the valid-bit word is
	// lossless whenever index+offset >= 1; the one degenerate geometry
	// with a genuine 64-bit tag (a single one-byte line) drops the top
	// address bit.
	tagBits := 64 - g.OffsetBits() - g.IndexBits()
	tagMask := ^uint64(0) >> 1
	if tagBits < 64 {
		tagMask = 1<<uint(tagBits) - 1
	}
	c := &Cache{
		ways:    g.Ways,
		offBits: uint(g.OffsetBits()),
		idxBits: uint(g.IndexBits()),
		idxMask: uint64(g.Sets() - 1),
		tagMask: tagMask,
		tags:    make([]uint64, n),
	}
	// LRU stamps exist only for associative organisations; the
	// direct-mapped path (the paper's architecture, built per bank per
	// job on the sweep hot path) never touches them.
	if g.Ways > 1 {
		c.stamp = make([]uint64, n)
	}
	return c, nil
}

// tagWord returns the line's stored word for addr: tag<<1 | valid.
func (c *Cache) tagWord(addr uint64) (set uint64, word uint64) {
	la := addr >> c.offBits
	return la & c.idxMask, ((la>>c.idxBits)&c.tagMask)<<1 | 1
}

// Access looks up addr, fills on miss (LRU victim), and reports whether it
// hit.
func (c *Cache) Access(addr uint64) bool {
	set, word := c.tagWord(addr)
	if c.ways == 1 {
		if c.tags[set] == word {
			c.hits++
			return true
		}
		c.tags[set] = word
		c.misses++
		return false
	}
	return c.accessAssoc(int(set), word)
}

// accessAssoc is the set-associative way scan: hit updates the LRU
// stamp; miss fills the last invalid way, else the LRU way.
func (c *Cache) accessAssoc(set int, word uint64) bool {
	base := set * c.ways
	c.clock++
	victim := base
	victimStamp := ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == word {
			c.stamp[i] = c.clock
			c.hits++
			return true
		}
		if c.tags[i] == 0 {
			victim = i
			victimStamp = 0
		} else if c.stamp[i] < victimStamp {
			victim = i
			victimStamp = c.stamp[i]
		}
	}
	c.tags[victim] = word
	c.stamp[victim] = c.clock
	c.misses++
	return false
}

// DirectTags is the flattened tag store of a direct-mapped cache plus
// its precomputed address splits — the view core's access walk probes
// inline, one load and one compare per access, without a per-element
// call. Tags aliases the cache's own store, so Flush (and fills through
// Access) stay visible to the view and vice versa. Lookups through the
// view are not counted in Stats.
type DirectTags struct {
	// Tags is the live tag-word array: tag<<1|valid per line, 0 invalid.
	Tags []uint64
	// OffBits/IdxBits/IdxMask/TagMask are the address splits: for addr,
	// la := addr >> OffBits; set := la & IdxMask;
	// word := ((la>>IdxBits)&TagMask)<<1 | 1.
	OffBits, IdxBits uint
	IdxMask, TagMask uint64
}

// Direct returns the direct-mapped probe view. ok is false for a
// set-associative organisation, whose way scan and LRU stamps cannot be
// probed as a single tag word.
func (c *Cache) Direct() (dt DirectTags, ok bool) {
	if c.ways != 1 {
		return DirectTags{}, false
	}
	return DirectTags{
		Tags:    c.tags,
		OffBits: c.offBits,
		IdxBits: c.idxBits,
		IdxMask: c.idxMask,
		TagMask: c.tagMask,
	}, true
}

// Contains reports presence without updating LRU or counters.
func (c *Cache) Contains(addr uint64) bool {
	set, word := c.tagWord(addr)
	base := int(set) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == word {
			return true
		}
	}
	return false
}

// Flush invalidates every line (the mandatory action on a re-indexing
// update).
func (c *Cache) Flush() {
	clear(c.tags)
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }
