package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func randomTrace(n int, seed int64) *Trace {
	tr := &Trace{Name: "random"}
	rng := rand.New(rand.NewSource(seed))
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(7))
		tr.Append(cycle, uint64(rng.Intn(1<<24)), Kind(rng.Intn(2)))
	}
	tr.Span = cycle + uint64(rng.Intn(100)) + 1
	return tr
}

// accesses lists tr's accesses as the records the Encoder takes.
func accesses(tr *Trace) []Access {
	out := make([]Access, tr.Len())
	for i := range out {
		out[i] = Access{Cycle: tr.Cycles[i], Addr: tr.Addrs[i], Kind: tr.Kinds[i]}
	}
	return out
}

// TestEncoderDecoderRoundTrip streams a trace out in v2 and back through
// the auto-sniffing decoder.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	tr := randomTrace(500, 3)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accesses(tr) {
		if err := enc.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Encoded() != uint64(tr.Len()) {
		t.Errorf("Encoded = %d, want %d", enc.Encoded(), tr.Len())
	}
	if err := enc.Close(tr.Span); err != nil {
		t.Fatal(err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
	if _, ok := d.DeclaredCount(); ok {
		t.Error("v2 stream reported a declared count")
	}
}

// TestEncodeStreamHelper round-trips the one-call form, empty trace
// included.
func TestEncodeStreamHelper(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), {Name: "empty", Span: 9}, {}} {
		var buf bytes.Buffer
		if err := EncodeStream(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Close(0) on an empty trace keeps the explicit span; Close with
		// tr.Span preserves it exactly.
		if !reflect.DeepEqual(tr, got) && !(tr.Len() == 0 && got.Len() == 0 && got.Span == tr.Span) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
		}
	}
}

// TestDecoderReadsV1 checks the streaming decoder accepts the counted
// at-rest format and reports its declared count.
func TestDecoderReadsV1(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := d.DeclaredCount(); !ok || n != uint64(tr.Len()) {
		t.Errorf("DeclaredCount = %d,%v, want %d,true", n, ok, tr.Len())
	}
	if d.Name() != tr.Name {
		t.Errorf("Name = %q, want %q", d.Name(), tr.Name)
	}
	got, err := d.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

// TestDecoderSniffsText feeds the text format through the auto-sniffing
// constructor.
func TestDecoderSniffsText(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

// TestDecoderNextIncremental drives Next directly and checks the
// per-record view matches the batch one.
func TestDecoderNextIncremental(t *testing.T) {
	tr := randomTrace(64, 9)
	var buf bytes.Buffer
	if err := EncodeStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range accesses(tr) {
		a, err := d.Next()
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if a != want {
			t.Fatalf("access %d = %+v, want %+v", i, a, want)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("tail Next err = %v, want io.EOF", err)
	}
	if d.Cycles() != tr.Span {
		t.Errorf("Cycles = %d, want %d", d.Cycles(), tr.Span)
	}
	if d.Decoded() != uint64(tr.Len()) {
		t.Errorf("Decoded = %d, want %d", d.Decoded(), tr.Len())
	}
	// EOF is sticky.
	if _, err := d.Next(); err != io.EOF {
		t.Errorf("repeat Next err = %v, want io.EOF", err)
	}
}

// hugeCountHeader builds a syntactically valid v1 header claiming
// `count` accesses with no access bytes behind it.
func hugeCountHeader(count uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 0) // empty name
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], count)
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1) // span
	buf.Write(tmp[:n])
	return buf.Bytes()
}

// TestReadBinaryHugeCountBounded is the huge-count regression: a
// ~16-byte input whose header claims 2³² accesses must fail cleanly
// without committing memory for the claim. Against the pre-hardening
// decoder (make([]Access, 0, count) straight from the header) this test
// dies allocating ~100 GiB.
func TestReadBinaryHugeCountBounded(t *testing.T) {
	input := hugeCountHeader(1 << 32)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, err := ReadBinary(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("truncated huge-count input accepted: %+v", tr)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 8<<20 {
		t.Errorf("decoding a %d-byte malicious header allocated %d bytes", len(input), delta)
	}
}

// TestReadBinaryAbsurdCountRejected keeps the outright cap on claims
// beyond 2³².
func TestReadBinaryAbsurdCountRejected(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(hugeCountHeader(1<<32 + 1))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

// TestNewlineNameRejected is the header-injection regression: WriteText
// writes the name verbatim into a `# name` header line, so a newline in
// the name forges extra header lines and corrupts the round-trip. The
// pre-hardening writer accepted such names (this test failed); now every
// producer rejects them up front.
func TestNewlineNameRejected(t *testing.T) {
	evil := &Trace{Name: "evil\n# cycles 999999"}
	evil.Append(0, 0x40, Read)
	evil.Span = 10

	if err := evil.Validate(); !errors.Is(err, ErrBadName) {
		t.Errorf("Validate err = %v, want ErrBadName", err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, evil); !errors.Is(err, ErrBadName) {
		t.Errorf("WriteText err = %v, want ErrBadName", err)
	}
	if err := WriteBinary(&buf, evil); !errors.Is(err, ErrBadName) {
		t.Errorf("WriteBinary err = %v, want ErrBadName", err)
	}
	if _, err := NewEncoder(&buf, evil.Name); !errors.Is(err, ErrBadName) {
		t.Errorf("NewEncoder err = %v, want ErrBadName", err)
	}
}

// TestWriteTextNameRoundTrip states the injection bug purely in terms
// of the original API: if WriteText accepts a name, the round-trip must
// preserve it. Against the pre-hardening writer the newline name came
// back truncated (to "evil") with the forged `# cycles` header applied,
// and this test failed; now the writer refuses such names up front.
func TestWriteTextNameRoundTrip(t *testing.T) {
	tr := &Trace{Name: "evil\n# cycles 999999"}
	tr.Append(0, 0x40, Read)
	tr.Span = 10
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		return // rejected up front: nothing written, nothing to corrupt
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("writer emitted an unreadable stream: %v", err)
	}
	if got.Name != tr.Name || got.Span != tr.Span {
		t.Fatalf("newline in name corrupted the round-trip: name %q cycles %d, want %q cycles %d",
			got.Name, got.Span, tr.Name, tr.Span)
	}
}

// TestReadBinaryNameControlChars applies the same rule on the decode
// side: a crafted stream whose name field embeds a newline is rejected.
func TestReadBinaryNameControlChars(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion)
	name := "evil\nname"
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(name)))
	buf.Write(tmp[:n])
	buf.WriteString(name)
	n = binary.PutUvarint(tmp[:], 0) // count
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1) // span
	buf.Write(tmp[:n])
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

// TestReadTextHeaderInjectionHarmless: a text stream carrying the forged
// header must not let the injected line win; decoding either fails or
// yields a trace whose name passes validation.
func TestReadTextHeaderInjectionHarmless(t *testing.T) {
	in := "# name evil\n# cycles 999999\n0 R 0x40\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		return
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("decoder produced invalid trace: %v", err)
	}
}

// TestNamePreservedAcrossFormats: a name with interior runs of spaces
// must decode identically from text and binary — otherwise the two
// forms of one trace would land on different content addresses. Names
// that cannot round-trip through the line-trimming text codec (leading/
// trailing spaces) are rejected outright.
func TestNamePreservedAcrossFormats(t *testing.T) {
	tr := sampleTrace()
	tr.Name = "two  interior   spaces"
	var txt, bin bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.Name != tr.Name || fromBin.Name != tr.Name {
		t.Errorf("name diverged: text %q, binary %q, want %q", fromText.Name, fromBin.Name, tr.Name)
	}

	for _, bad := range []string{" x", "x ", " "} {
		if err := (&Trace{Name: bad, Span: 1}).Validate(); !errors.Is(err, ErrBadName) {
			t.Errorf("name %q: err = %v, want ErrBadName", bad, err)
		}
	}
}

// TestLongNameRejected bounds names on both sides.
func TestLongNameRejected(t *testing.T) {
	long := strings.Repeat("n", maxNameLen+1)
	tr := &Trace{Name: long, Span: 1}
	if err := tr.Validate(); !errors.Is(err, ErrBadName) {
		t.Errorf("Validate err = %v, want ErrBadName", err)
	}
}

// errReader fails with a sentinel after serving its prefix.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadTextScannerErrorsWrapped distinguishes the two text failure
// classes: an over-long line is malformed input (ErrBadFormat), a reader
// failure surfaces as the underlying error and NOT as ErrBadFormat.
func TestReadTextScannerErrorsWrapped(t *testing.T) {
	longLine := strings.Repeat("a", maxTextLine+1)
	if _, err := ReadText(strings.NewReader(longLine)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("over-long line err = %v, want ErrBadFormat", err)
	}

	sentinel := errors.New("disk on fire")
	_, err := ReadText(&errReader{data: []byte("0 R 0x40\n"), err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Errorf("I/O failure err = %v, want wrapped sentinel", err)
	}
	if errors.Is(err, ErrBadFormat) {
		t.Errorf("I/O failure misclassified as bad format: %v", err)
	}
}

// TestBinaryIOErrorsKeepIdentity: a reader failure mid-stream must
// surface as itself (errors.Is/As reachable) and not be misclassified
// as malformed input — callers like the upload handler key status codes
// off the error identity (e.g. http.MaxBytesError -> 413). Truncation
// (clean EOF mid-record) stays ErrBadFormat.
func TestBinaryIOErrorsKeepIdentity(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	sentinel := errors.New("disk on fire")
	for _, cut := range []int{2, 6, len(full) / 2, len(full) - 1} {
		d, err := NewBinaryDecoder(&errReader{data: full[:cut], err: sentinel})
		if err == nil {
			_, err = d.ReadAll(0)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("cut at %d: err = %v, want wrapped sentinel", cut, err)
		}
		if errors.Is(err, ErrBadFormat) {
			t.Errorf("cut at %d: I/O failure misclassified as bad format: %v", cut, err)
		}
	}
	// Plain truncation (no reader error) is still malformed input.
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)-1])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncation err = %v, want ErrBadFormat", err)
	}
}

// TestReadAllCap enforces the caller's access budget against both a
// lying header and a genuinely long stream.
func TestReadAllCap(t *testing.T) {
	tr := randomTrace(100, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAll(10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("v1 cap err = %v, want ErrTooLarge", err)
	}

	buf.Reset()
	if err := EncodeStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err = NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAll(10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("v2 cap err = %v, want ErrTooLarge", err)
	}
}

// TestV2Truncations: every proper prefix of a v2 stream must error.
func TestV2Truncations(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		d, err := NewBinaryDecoder(bytes.NewReader(full[:n]))
		if err != nil {
			continue
		}
		if _, err := d.ReadAll(0); err == nil {
			t.Fatalf("truncation at %d of %d accepted", n, len(full))
		}
	}
}

// TestBinaryFraming: binary decoding consumes exactly one trace and
// leaves the reader after it, so traces frame back-to-back on a single
// stream in either version.
func TestBinaryFraming(t *testing.T) {
	a, b := sampleTrace(), randomTrace(20, 4)
	b.Name = "second"
	var buf bytes.Buffer
	if err := EncodeStream(&buf, a); err != nil { // v2 then v1 on one stream
		t.Fatal(err)
	}
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	// A shared bufio.Reader keeps each decode from buffering past its
	// own trace.
	br := bufio.NewReader(&buf)
	dA, err := NewBinaryDecoder(br)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := dA.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if more, err := dA.More(); err != nil || !more {
		t.Errorf("More after first trace = %v,%v, want true", more, err)
	}
	dB, err := NewBinaryDecoder(br)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := dB.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if more, err := dB.More(); err != nil || more {
		t.Errorf("More at end of stream = %v,%v, want false", more, err)
	}
	if !reflect.DeepEqual(a, gotA) || !reflect.DeepEqual(b, gotB) {
		t.Errorf("framed traces mismatch:\n got %+v / %+v\nwant %+v / %+v", gotA, gotB, a, b)
	}
}

// TestV2StreamingPipe: a terminated v2 trace decodes to completion over
// a pipe the producer keeps open — Close ends the trace, not the
// transport.
func TestV2StreamingPipe(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	tr := sampleTrace()
	go func() {
		enc, err := NewEncoder(pw, tr.Name)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for _, a := range accesses(tr) {
			if err := enc.Write(a); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if err := enc.Close(tr.Span); err != nil {
			pw.CloseWithError(err)
		}
		// Deliberately leave the pipe open: the decoder must not need
		// transport EOF.
	}()
	done := make(chan struct{})
	var got *Trace
	var err error
	go func() {
		defer close(done)
		var d *Decoder
		if d, err = NewBinaryDecoder(pr); err == nil {
			got, err = d.ReadAll(0)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("decoder blocked waiting for transport EOF after the terminator")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("pipe round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

// TestEncoderEnforcesInvariants: out-of-order writes, bad kinds, short
// spans and use-after-Close all fail at the encoder; validation
// failures latch so a violated stream cannot close cleanly.
func TestEncoderEnforcesInvariants(t *testing.T) {
	newEnc := func() *Encoder {
		enc, err := NewEncoder(&bytes.Buffer{}, "strict")
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Write(Access{Cycle: 10, Addr: 1, Kind: Read}); err != nil {
			t.Fatal(err)
		}
		return enc
	}

	enc := newEnc()
	if err := enc.Write(Access{Cycle: 5, Addr: 2, Kind: Read}); !errors.Is(err, ErrUnordered) {
		t.Errorf("unordered write err = %v, want ErrUnordered", err)
	}
	// The violation latches: a later clean Close must not succeed and
	// hand the caller a terminated stream missing the rejected access.
	if err := enc.Close(0); !errors.Is(err, ErrUnordered) {
		t.Errorf("Close after violation err = %v, want latched ErrUnordered", err)
	}

	enc = newEnc()
	if err := enc.Write(Access{Cycle: 11, Addr: 2, Kind: Kind(7)}); err == nil {
		t.Error("invalid kind accepted")
	}
	if err := enc.Close(0); err == nil {
		t.Error("Close after invalid-kind violation succeeded")
	}

	enc = newEnc()
	if err := enc.Close(5); err == nil { // span does not cover cycle 10
		t.Error("short span accepted")
	}

	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, "strict")
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Access{Cycle: 10, Addr: 1, Kind: Read}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(0); err != nil { // infers 11
		t.Fatal(err)
	}
	if err := enc.Write(Access{Cycle: 12, Kind: Read}); err == nil {
		t.Error("write after Close accepted")
	}
	if err := enc.Close(0); err == nil {
		t.Error("double Close accepted")
	}

	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Span != 11 {
		t.Errorf("inferred span = %d, want 11", got.Span)
	}
}

// TestDecoderEmptyInput: an empty stream is the empty trace in text
// mode and a format error in binary mode.
func TestDecoderEmptyInput(t *testing.T) {
	d, err := NewDecoder(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.ReadAll(0)
	if err != nil || tr.Len() != 0 {
		t.Errorf("empty input: %v %+v", err, tr)
	}
	if _, err := NewBinaryDecoder(strings.NewReader("")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("binary empty err = %v, want ErrBadFormat", err)
	}
}

// TestDecoderBoundedMemoryLargeStream decodes a sizeable v2 stream via
// Next only (no materialisation) and checks the decoder's own footprint
// stays flat — the chunk-proportional-memory acceptance criterion.
func TestDecoderBoundedMemoryLargeStream(t *testing.T) {
	const n = 200_000
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, "big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := enc.Write(Access{Cycle: uint64(i), Addr: uint64(i * 16), Kind: Kind(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(0); err != nil {
		t.Fatal(err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	count := 0
	for {
		if _, err := d.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	runtime.ReadMemStats(&after)
	if count != n {
		t.Fatalf("decoded %d accesses, want %d", count, n)
	}
	// n accesses materialised would be ~4.8 MB; the pure streaming walk
	// must stay well under that.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Errorf("streaming decode of %d accesses allocated %d bytes", n, delta)
	}
}
