package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

func columnsTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "columns-roundtrip"}
	cycle := uint64(rng.Intn(3))
	addr := uint64(rng.Intn(1 << 20))
	for i := 0; i < n; i++ {
		kind := Read
		if rng.Intn(4) == 0 {
			kind = Write
		}
		tr.Append(cycle, addr, kind)
		cycle += uint64(rng.Intn(5))
		switch rng.Intn(4) {
		case 0:
			addr = uint64(rng.Uint64()) // arbitrary jumps, including wraparound deltas
		case 1:
			addr -= uint64(rng.Intn(256)) // negative strides
		default:
			addr += uint64(rng.Intn(64))
		}
	}
	tr.Span = cycle + 1 + uint64(rng.Intn(100))
	return tr
}

// TestColumnsRowsRoundTrip pins the one place rows remain: the
// streaming codec's per-access records. Columns streamed out one Access
// at a time through the Encoder and read back through Decoder.Next must
// rebuild the same columns, and FromRows must copy them deeply.
func TestColumnsRowsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tr := columnsTrace(seed, 500)
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Cycles {
			if err := enc.Write(Access{Cycle: tr.Cycles[i], Addr: tr.Addrs[i], Kind: tr.Kinds[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(tr.Span); err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		back := &Trace{Name: dec.Name()}
		for {
			a, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			back.Append(a.Cycle, a.Addr, a.Kind)
		}
		back.Span = dec.Cycles()
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("seed %d: columns->rows->columns changed the trace", seed)
		}
		cp := FromRows(tr)
		if !reflect.DeepEqual(tr, cp) {
			t.Fatalf("seed %d: FromRows changed the trace", seed)
		}
		cp.Addrs[0]++
		cp.Kinds[0] ^= 1
		if tr.Addrs[0] == cp.Addrs[0] || tr.Kinds[0] == cp.Kinds[0] {
			t.Fatalf("seed %d: FromRows shares columns with its input", seed)
		}
	}
}

// TestWriteBinaryCanonicalBytes pins the bytes content addresses hash:
// the canonical v1 encoding of a small trace, byte for byte. A change
// here moves every uploaded trace's ID.
func TestWriteBinaryCanonicalBytes(t *testing.T) {
	tr := &Trace{Name: "g"}
	tr.Append(1, 0x40, Read)
	tr.Append(3, 0x20, Write)
	tr.Span = 9
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = "NBTR\x01\x01g\x02\t\x01\x80\x01\x00\x02?\x01"
	if got := buf.String(); got != want {
		t.Fatalf("canonical bytes:\ngot  %q\nwant %q", got, want)
	}
	// Empty trace: header only.
	buf.Reset()
	if err := WriteBinary(&buf, &Trace{Name: "e", Span: 5}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "NBTR\x01\x01e\x00\x05"; got != want {
		t.Fatalf("empty canonical bytes: got %q, want %q", got, want)
	}
}

func TestColumnCodecRoundTrip(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		cols := columnsTrace(seed, 333)
		var payload []byte
		payload = AppendCyclesColumn(payload, cols.Cycles)
		payload = AppendAddrsColumn(payload, cols.Addrs)
		payload = AppendKindsColumn(payload, cols.Kinds)

		cycles, rest, err := DecodeCyclesColumn(payload, cols.Len())
		if err != nil {
			t.Fatal(err)
		}
		addrs, rest, err := DecodeAddrsColumn(rest, cols.Len())
		if err != nil {
			t.Fatal(err)
		}
		kinds, rest, err := DecodeKindsColumn(rest, cols.Len())
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(cycles, cols.Cycles) || !reflect.DeepEqual(addrs, cols.Addrs) || !reflect.DeepEqual(kinds, cols.Kinds) {
			t.Fatalf("seed %d: column round-trip diverged", seed)
		}
	}
}

func TestColumnDecodeRejectsMalformed(t *testing.T) {
	// Counts exceeding the bytes present must fail before allocating.
	if _, _, err := DecodeCyclesColumn([]byte{1, 2}, 3); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("oversized cycle count: %v", err)
	}
	if _, _, err := DecodeAddrsColumn([]byte{1}, 2); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("oversized addr count: %v", err)
	}
	// Truncated varints.
	if _, _, err := DecodeCyclesColumn([]byte{0x80, 0x80}, 2); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated cycle varint: %v", err)
	}
	// Kind runs: zero-length, overshooting, missing kind byte, invalid kind.
	if _, _, err := DecodeKindsColumn([]byte{0, 0}, 1); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("zero-length run: %v", err)
	}
	if _, _, err := DecodeKindsColumn([]byte{5, 0}, 3); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("overshooting run: %v", err)
	}
	if _, _, err := DecodeKindsColumn([]byte{2}, 2); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("missing kind byte: %v", err)
	}
	if _, _, err := DecodeKindsColumn([]byte{1, 9}, 1); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("invalid kind: %v", err)
	}
}

func TestColumnsValidate(t *testing.T) {
	good := columnsTrace(1, 50)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	ragged := &Trace{Name: "r", Cycles: []uint64{1, 2}, Addrs: []uint64{1}, Kinds: []Kind{Read, Read}, Span: 3}
	if err := ragged.Validate(); err == nil {
		t.Fatal("ragged columns accepted")
	}
	unordered := &Trace{Name: "u", Cycles: []uint64{5, 3}, Addrs: []uint64{0, 0}, Kinds: []Kind{Read, Read}, Span: 9}
	if !errors.Is(unordered.Validate(), ErrUnordered) {
		t.Fatal("unordered columns accepted")
	}
	badKind := &Trace{Name: "k", Cycles: []uint64{1}, Addrs: []uint64{0}, Kinds: []Kind{Kind(7)}, Span: 2}
	if err := badKind.Validate(); err == nil {
		t.Fatal("invalid kind accepted")
	}
	shortSpan := &Trace{Name: "s", Cycles: []uint64{4}, Addrs: []uint64{0}, Kinds: []Kind{Read}, Span: 4}
	if err := shortSpan.Validate(); err == nil {
		t.Fatal("uncovered span accepted")
	}
}
