package trace

import (
	"encoding/binary"
	"fmt"
)

// The three column encodings below are the payload primitives of the
// columnar trace-blob format (engine "NBTC"): a delta-uvarint cycles
// column, a zig-zag-delta-varint addrs column, and a run-length-encoded
// kinds column. Encoders append to dst; decoders consume a prefix of b
// and return the remainder, reporting malformed input as ErrBadFormat.
// Decoders never size an allocation from anything but the caller-vetted
// count n, and bound n against the bytes actually present before
// allocating.

// AppendCyclesColumn appends the delta-uvarint encoding of a
// non-decreasing cycle column.
func AppendCyclesColumn(dst []byte, cycles []uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	var prev uint64
	for _, c := range cycles {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], c-prev)]...)
		prev = c
	}
	return dst
}

// DecodeCyclesColumn decodes n delta-uvarint cycles, returning the
// column and the unconsumed remainder. A delta that wraps uint64
// surfaces later as an unordered column (the wrapped value is smaller),
// which Validate rejects.
func DecodeCyclesColumn(b []byte, n int) ([]uint64, []byte, error) {
	if n < 0 || n > len(b) { // every delta is >= 1 byte
		return nil, nil, fmt.Errorf("%w: cycle column count %d exceeds %d payload bytes", ErrBadFormat, n, len(b))
	}
	out := make([]uint64, n)
	var prev uint64
	for i := 0; i < n; i++ {
		d, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated cycle column at access %d", ErrBadFormat, i)
		}
		b = b[sz:]
		prev += d
		out[i] = prev
	}
	return out, b, nil
}

// AppendAddrsColumn appends the zig-zag-delta-varint encoding of an
// address column (deltas are signed: workloads stride both ways).
func AppendAddrsColumn(dst []byte, addrs []uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	var prev uint64
	for _, a := range addrs {
		dst = append(dst, tmp[:binary.PutVarint(tmp[:], int64(a-prev))]...)
		prev = a
	}
	return dst
}

// DecodeAddrsColumn decodes n zig-zag-delta addresses.
func DecodeAddrsColumn(b []byte, n int) ([]uint64, []byte, error) {
	if n < 0 || n > len(b) { // every delta is >= 1 byte
		return nil, nil, fmt.Errorf("%w: addr column count %d exceeds %d payload bytes", ErrBadFormat, n, len(b))
	}
	out := make([]uint64, n)
	var prev uint64
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(b)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated addr column at access %d", ErrBadFormat, i)
		}
		b = b[sz:]
		prev += uint64(d)
		out[i] = prev
	}
	return out, b, nil
}

// AppendKindsColumn appends the run-length encoding of a kind column:
// (run length uvarint, kind byte) pairs covering the column exactly.
// Access kinds run long (phases of reads, bursts of writes), so this is
// typically a handful of bytes for any real trace.
func AppendKindsColumn(dst []byte, kinds []Kind) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < len(kinds); {
		j := i + 1
		for j < len(kinds) && kinds[j] == kinds[i] {
			j++
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(j-i))]...)
		dst = append(dst, byte(kinds[i]))
		i = j
	}
	return dst
}

// DecodeKindsColumn decodes run-length-encoded kinds totalling exactly
// n accesses. Runs that overshoot n, zero-length runs, and invalid kind
// bytes are all rejected.
func DecodeKindsColumn(b []byte, n int) ([]Kind, []byte, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("%w: negative kind column count", ErrBadFormat)
	}
	out := make([]Kind, 0, n)
	for len(out) < n {
		run, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated kind column after %d of %d accesses", ErrBadFormat, len(out), n)
		}
		b = b[sz:]
		if run == 0 || run > uint64(n-len(out)) {
			return nil, nil, fmt.Errorf("%w: kind run of %d exceeds remaining %d accesses", ErrBadFormat, run, n-len(out))
		}
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("%w: kind run missing its kind byte", ErrBadFormat)
		}
		k := Kind(b[0])
		b = b[1:]
		if !k.Valid() {
			return nil, nil, fmt.Errorf("%w: invalid kind %d in column", ErrBadFormat, k)
		}
		for i := uint64(0); i < run; i++ {
			out = append(out, k)
		}
	}
	return out, b, nil
}
