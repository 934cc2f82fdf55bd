package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary format v1 (the counted at-rest form; see stream.go for the
// terminated streaming v2 the Encoder emits):
//
//	magic "NBTR" | version byte | name (uvarint len + bytes)
//	count (uvarint) | span cycles (uvarint)
//	per access: cycle delta (uvarint) | addr zig-zag delta (varint) | kind byte
//
// Cycle deltas are non-negative by construction (Validate enforces order);
// address deltas are signed because workloads stride both ways. The count
// and span are untrusted claims: decoders verify them against the bytes
// that actually arrive and never size allocations from them.

const (
	binaryMagic   = "NBTR"
	binaryVersion = 1
)

// ErrBadFormat is returned when decoding input that is not a valid trace.
var ErrBadFormat = errors.New("trace: bad format")

// WriteBinary encodes t in the compact delta format. These are the
// canonical bytes a trace's content address hashes.
func WriteBinary(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.Len())); err != nil {
		return err
	}
	if err := putUvarint(t.Span); err != nil {
		return err
	}
	// One buffered write per access: cycle delta, addr delta, kind
	// (two varints and a byte peak at 21 bytes).
	var rec [2*binary.MaxVarintLen64 + 1]byte
	var prevCycle, prevAddr uint64
	for i, c := range t.Cycles {
		a := t.Addrs[i]
		n := binary.PutUvarint(rec[:], c-prevCycle)
		n += binary.PutVarint(rec[n:], int64(a-prevAddr))
		rec[n] = byte(t.Kinds[i])
		if _, err := bw.Write(rec[:n+1]); err != nil {
			return err
		}
		prevCycle, prevAddr = c, a
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary (v1) or by an
// Encoder stream (v2). Decoding is incremental: memory is proportional
// to the accesses actually present, never to a header-claimed count.
func ReadBinary(r io.Reader) (*Trace, error) {
	d, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, err
	}
	return d.ReadAll(0)
}

// WriteText writes one access per line as "cycle kind hexaddr", preceded by
// a header. The format round-trips through ReadText and is convenient for
// diffing and for feeding external tools.
func WriteText(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nbticache trace v%d\n# name %s\n# cycles %d\n",
		binaryVersion, t.Name, t.Span); err != nil {
		return err
	}
	for i, c := range t.Cycles {
		if _, err := fmt.Fprintf(bw, "%d %s %#x\n", c, t.Kinds[i], t.Addrs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the format produced by WriteText. Malformed input
// (including an over-long line) is reported as ErrBadFormat; genuine
// reader failures are returned as themselves (wrapped, unwrappable with
// errors.Is/As), so callers can tell the two apart.
func ReadText(r io.Reader) (*Trace, error) {
	return NewTextDecoder(r).ReadAll(0)
}
