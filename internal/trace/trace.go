// Package trace defines the memory-access trace substrate the cache
// simulator consumes. The paper drives an in-house cache simulator from
// MediaBench traces; this package provides the equivalent trace plumbing:
// an in-memory Trace held as three parallel columns (cycle stamps, byte
// addresses, access kinds), streaming codecs that exchange one Access
// record at a time (a compact delta/varint binary format and a
// human-readable text format), the column codecs of the at-rest blob
// format, and footprint/density statistics.
package trace

import (
	"errors"
	"fmt"
	"slices"
)

// Kind distinguishes reads from writes. The DATE'11 architecture is
// insensitive to the access direction (both reset the bank idle counter),
// but the energy model charges writes slightly differently and downstream
// users of the library may care.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	numKinds
)

// String returns "R" or "W".
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined access kind.
func (k Kind) Valid() bool { return k < numKinds }

// Access is one memory reference: the cycle it occurs on and the byte
// address it touches. It is the record the streaming Decoder and Encoder
// exchange; a Trace holds the same fields as columns.
type Access struct {
	Cycle uint64
	Addr  uint64
	Kind  Kind
}

// Trace is an in-memory access sequence in struct-of-arrays layout:
// three parallel columns plus the total cycle span. This is the exact
// shape the batched simulation kernel consumes, so a trace feeds
// core.AccessBatch by slicing, with no per-access struct anywhere
// between the decoded bytes and the kernel.
type Trace struct {
	Name string
	// Cycles, Addrs and Kinds are parallel: element i is one access.
	// Cycles must be non-decreasing.
	Cycles []uint64
	Addrs  []uint64
	Kinds  []Kind
	// Span is the total duration of the trace in cycles. It must be
	// greater than the cycle stamp of the last access: the tail after
	// it is a trailing idle period, part of the workload, and counts
	// toward bank idleness.
	Span uint64
}

// Columns is Trace's former name for the columnar form. It is kept
// because cmd/nbtibench, a separate module that builds against this
// package, still refers to it.
type Columns = Trace

// FromRows returns a deep copy of t. The name predates the columnar
// Trace; it is kept because cmd/nbtibench still calls it.
func FromRows(t *Trace) *Columns { return t.Clone() }

// Clone returns a deep copy of t: the result shares no column with t,
// so a caller mutating either cannot desynchronise the other.
func (t *Trace) Clone() *Trace {
	return &Trace{
		Name:   t.Name,
		Cycles: slices.Clone(t.Cycles),
		Addrs:  slices.Clone(t.Addrs),
		Kinds:  slices.Clone(t.Kinds),
		Span:   t.Span,
	}
}

// ErrUnordered is returned when access cycle stamps decrease.
var ErrUnordered = errors.New("trace: accesses not in cycle order")

// ErrBadName is returned for trace names that cannot round-trip through
// every codec: the text format writes the name verbatim into a `# name`
// header line, so a control character (a newline above all) would inject
// forged header lines into the stream.
var ErrBadName = errors.New("trace: invalid name")

// maxNameLen bounds trace names across all codecs.
const maxNameLen = 4096

// checkName enforces the cross-codec name rule: at most maxNameLen
// bytes, no control characters (bytes < 0x20 or 0x7F), no leading or
// trailing spaces (the text codec trims lines, so such names could not
// round-trip and would split one trace across two content addresses).
func checkName(name string) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("%w: %d bytes exceeds %d", ErrBadName, len(name), maxNameLen)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7F {
			return fmt.Errorf("%w: control character %q at byte %d", ErrBadName, name[i], i)
		}
	}
	if name != "" && (name[0] == ' ' || name[len(name)-1] == ' ') {
		return fmt.Errorf("%w: leading or trailing space in %q", ErrBadName, name)
	}
	return nil
}

// Validate checks internal consistency: parallel column lengths, a
// codec-safe name, ordered cycle stamps, valid kinds, and a span that
// covers every access.
func (t *Trace) Validate() error {
	if err := checkName(t.Name); err != nil {
		return err
	}
	n := len(t.Cycles)
	if len(t.Addrs) != n || len(t.Kinds) != n {
		return fmt.Errorf("trace: column length mismatch: %d cycles, %d addrs, %d kinds",
			n, len(t.Addrs), len(t.Kinds))
	}
	var prev uint64
	for i, c := range t.Cycles {
		if c < prev {
			return fmt.Errorf("%w: access %d at cycle %d after cycle %d",
				ErrUnordered, i, c, prev)
		}
		if !t.Kinds[i].Valid() {
			return fmt.Errorf("trace: access %d has invalid kind %d", i, t.Kinds[i])
		}
		prev = c
	}
	if n > 0 && t.Span <= t.Cycles[n-1] {
		return fmt.Errorf("trace: span %d cycles does not cover last access at cycle %d",
			t.Span, t.Cycles[n-1])
	}
	return nil
}

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Cycles) }

// Density returns accesses per cycle over the whole span (0 for an empty
// or zero-length trace).
func (t *Trace) Density() float64 {
	if t.Span == 0 {
		return 0
	}
	return float64(len(t.Cycles)) / float64(t.Span)
}

// Append adds one access, extending the span to at least cycle+1.
func (t *Trace) Append(cycle, addr uint64, kind Kind) {
	t.Cycles = append(t.Cycles, cycle)
	t.Addrs = append(t.Addrs, addr)
	t.Kinds = append(t.Kinds, kind)
	if cycle+1 > t.Span {
		t.Span = cycle + 1
	}
}

// Stats summarises a trace for reporting and for sanity-checking generated
// workloads.
type Stats struct {
	Accesses   int
	Cycles     uint64
	Reads      int
	Writes     int
	MinAddr    uint64
	MaxAddr    uint64
	UniqueLine int // distinct line addresses at the given line size
	Density    float64
}

// ComputeStats scans the trace once. lineSize is used for the unique-line
// (footprint) count; it must be a power of two >= 1.
func ComputeStats(t *Trace, lineSize uint64) Stats {
	s := Stats{Accesses: t.Len(), Cycles: t.Span, Density: t.Density()}
	if t.Len() == 0 {
		return s
	}
	if lineSize == 0 {
		lineSize = 1
	}
	lines := make(map[uint64]struct{})
	s.MinAddr = t.Addrs[0]
	for i, a := range t.Addrs {
		if t.Kinds[i] == Write {
			s.Writes++
		} else {
			s.Reads++
		}
		s.MinAddr = min(s.MinAddr, a)
		s.MaxAddr = max(s.MaxAddr, a)
		lines[a/lineSize] = struct{}{}
	}
	s.UniqueLine = len(lines)
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d cycles=%d density=%.3f reads=%d writes=%d addr=[%#x,%#x] lines=%d",
		s.Accesses, s.Cycles, s.Density, s.Reads, s.Writes, s.MinAddr, s.MaxAddr, s.UniqueLine)
}
