package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func geom16k() Geometry {
	return Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
}

func TestGeometryDerived(t *testing.T) {
	g := geom16k()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Lines() != 1024 || g.Sets() != 1024 {
		t.Errorf("lines/sets = %d/%d, want 1024/1024", g.Lines(), g.Sets())
	}
	if g.IndexBits() != 10 || g.OffsetBits() != 4 {
		t.Errorf("index/offset bits = %d/%d, want 10/4", g.IndexBits(), g.OffsetBits())
	}
	// 32 - 10 - 4 + valid = 19
	if g.TagBits() != 19 {
		t.Errorf("TagBits = %d, want 19", g.TagBits())
	}
	// 19 bits -> 3 bytes per line * 1024 lines
	if g.TagArrayBytes() != 3*1024 {
		t.Errorf("TagArrayBytes = %d, want 3072", g.TagArrayBytes())
	}
}

func TestGeometrySetAssoc(t *testing.T) {
	g := Geometry{Size: 16 * 1024, LineSize: 16, Ways: 4, AddressBits: 32}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Sets() != 256 || g.IndexBits() != 8 {
		t.Errorf("sets/index = %d/%d, want 256/8", g.Sets(), g.IndexBits())
	}
}

func TestGeometryValidate(t *testing.T) {
	cases := []Geometry{
		{Size: 0, LineSize: 16, Ways: 1, AddressBits: 32},
		{Size: 3000, LineSize: 16, Ways: 1, AddressBits: 32},
		{Size: 1024, LineSize: 0, Ways: 1, AddressBits: 32},
		{Size: 1024, LineSize: 24, Ways: 1, AddressBits: 32},
		{Size: 16, LineSize: 64, Ways: 1, AddressBits: 32},
		{Size: 1024, LineSize: 16, Ways: 0, AddressBits: 32},
		{Size: 1024, LineSize: 16, Ways: 3, AddressBits: 32},
		{Size: 1024, LineSize: 16, Ways: 128, AddressBits: 32},
		{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 0},
		{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 65},
		{Size: 1 << 20, LineSize: 16, Ways: 1, AddressBits: 8},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad geometry accepted: %+v", i, g)
		}
	}
}

func TestIndexTagSplit(t *testing.T) {
	g := geom16k()
	addr := uint64(0xABCDE)
	line := addr >> 4
	if g.LineAddr(addr) != line {
		t.Errorf("LineAddr = %#x", g.LineAddr(addr))
	}
	if g.Index(addr) != line&1023 {
		t.Errorf("Index = %#x", g.Index(addr))
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, err := New(geom16k())
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x100F) { // same line
		t.Error("same-line access missed")
	}
	if c.Access(0x1010) { // next line
		t.Error("different line hit")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = %d/%d, want 2/2", hits, misses)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c, _ := New(geom16k())
	a := uint64(0x0000)
	b := a + 16*1024 // same index, different tag
	c.Access(a)
	c.Access(b) // evicts a
	if c.Access(a) {
		t.Error("conflict victim still present")
	}
}

func TestLRUReplacement(t *testing.T) {
	g := Geometry{Size: 64, LineSize: 16, Ways: 4, AddressBits: 32} // one set
	c, _ := New(g)
	// Fill the set with 4 lines.
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 64) // stride keeps index 0
	}
	// Touch line 0 to make line 1 the LRU victim.
	c.Access(0)
	// Insert a 5th line; it must evict line 1 (address 64).
	c.Access(4 * 64)
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(64) {
		t.Error("LRU line survived")
	}
	for _, keep := range []uint64{2 * 64, 3 * 64, 4 * 64} {
		if !c.Contains(keep) {
			t.Errorf("line %#x missing", keep)
		}
	}
}

func TestFlush(t *testing.T) {
	c, _ := New(geom16k())
	c.Access(0x40)
	c.Flush()
	if c.Contains(0x40) {
		t.Error("flush left a line valid")
	}
	if c.Access(0x40) {
		t.Error("post-flush access hit")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Geometry{}); err == nil {
		t.Error("zero geometry accepted")
	}
}

// Property: Contains agrees with a shadow map model under random access
// streams (direct-mapped).
func TestDirectMappedMatchesShadowModel(t *testing.T) {
	g := Geometry{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	c, _ := New(g)
	shadow := make(map[uint64]uint64) // index -> line address
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 14))
		line := g.LineAddr(addr)
		idx := g.Index(addr)
		wantHit := shadow[idx] == line && shadowValid(shadow, idx)
		gotHit := c.Access(addr)
		if gotHit != wantHit {
			t.Fatalf("access %d addr %#x: hit=%v want %v", i, addr, gotHit, wantHit)
		}
		shadow[idx] = line
	}
}

func shadowValid(m map[uint64]uint64, idx uint64) bool {
	_, ok := m[idx]
	return ok
}

// Property: hits + misses always equals the number of accesses, and a
// repeat of the immediately preceding address always hits.
func TestAccessInvariants(t *testing.T) {
	g := Geometry{Size: 2048, LineSize: 32, Ways: 2, AddressBits: 32}
	f := func(addrs []uint32) bool {
		c, err := New(g)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		h, m := c.Stats()
		return h+m == uint64(2*len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTagWordSentinel pins the flattened-store invariant the lookup
// relies on: address 0 (tag 0) is distinguishable from an invalid line.
func TestTagWordSentinel(t *testing.T) {
	g := Geometry{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	c, _ := New(g)
	if c.Contains(0) {
		t.Fatal("empty cache claims to contain address 0")
	}
	if c.Access(0) {
		t.Fatal("cold access to address 0 hit")
	}
	if !c.Access(0) {
		t.Fatal("warm access to address 0 missed")
	}
	c.Flush()
	if c.Contains(0) {
		t.Fatal("flushed cache claims to contain address 0")
	}
}

// TestOutOfWidthAddressesKeepDistinctTags: uploaded traces carry
// unvalidated uint64 addresses, so two addresses differing only above
// the geometry's declared AddressBits must still compare unequal (the
// flattened store keeps every tag bit above the index/offset split, not
// just the AddressBits-derived width). Regression: an early version of
// the tag-word layout truncated to the declared width and turned the
// second access below into a false hit.
func TestOutOfWidthAddressesKeepDistinctTags(t *testing.T) {
	for _, g := range []Geometry{
		{Size: 1024, LineSize: 16, Ways: 1, AddressBits: 32},
		{Size: 1024, LineSize: 16, Ways: 2, AddressBits: 32},
	} {
		c, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		const lo, hi = uint64(0x1000), uint64(0x1_0000_1000) // equal below bit 32
		if c.Access(lo) {
			t.Fatal("cold access hit")
		}
		if c.Access(hi) {
			t.Fatalf("%+v: address %#x aliased with %#x above the declared width", g, hi, lo)
		}
		if g.Ways > 1 {
			// With 2 ways both lines fit one set: each must now hit as itself.
			if !c.Access(lo) || !c.Access(hi) {
				t.Fatalf("%+v: distinct out-of-width tags did not both stick", g)
			}
		}
		if c.Access(lo+1<<40) || c.Access(lo+1<<41) {
			t.Fatalf("%+v: out-of-width tags above bit 40 aliased", g)
		}
	}
}

func BenchmarkAccess(b *testing.B) {
	c, err := New(geom16k())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}
