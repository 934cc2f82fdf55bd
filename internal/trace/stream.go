package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Streaming codec. The Decoder consumes any of the three wire formats —
// binary v1 (counted), binary v2 (terminated) and text — one access at a
// time in bounded memory: nothing is sized from untrusted header fields,
// so a 16-byte stream claiming 2³² accesses costs 16 bytes, not 100 GiB.
// The Encoder produces binary v2, which needs neither the access count
// nor the cycle span up front and therefore streams:
//
//	magic "NBTR" | version 2 | name (uvarint len + bytes)
//	per access: kind byte (0=R, 1=W) | cycle delta (uvarint) | addr zig-zag delta (varint)
//	terminator: 0xFF | total span cycles (uvarint)
//
// Binary v1 (WriteBinary) stays the at-rest format; both decode through
// the same Decoder.

const (
	binaryVersionStream = 2
	// streamEnd is the v2 record terminator, in the kind-byte position
	// (real kinds are < numKinds).
	streamEnd = 0xFF
	// maxTextLine bounds one text line; valid records are tens of bytes.
	maxTextLine = 1 << 20
)

// ErrTooLarge is returned by Decoder.ReadAll when the stream holds more
// accesses than the caller's cap.
var ErrTooLarge = errors.New("trace: too many accesses")

type format uint8

const (
	formatBinaryV1 format = iota
	formatBinaryV2
	formatText
)

// Decoder reads a trace incrementally from any supported wire format.
// It enforces the same invariants as Trace.Validate — ordered cycles,
// valid kinds, a clean name, a span covering the last access — but does
// so per record, holding only fixed-size state plus one buffered chunk.
//
// Binary decoding consumes exactly one trace (through the declared count
// for v1, through the terminator for v2) and never reads past it: a v2
// producer on a live pipe need not close it for the consumer's ReadAll
// to return, and traces framed back-to-back on one stream decode in
// sequence when every decode shares one *bufio.Reader (see asBufio).
// (Text is unframed and reads to end of input.)
type Decoder struct {
	br  *bufio.Reader
	sc  *bufio.Scanner // text only
	fmt format

	name     string
	declared uint64 // v1 header count
	hasCount bool
	cycles   uint64 // header span (v1/text header) or v2 terminator

	decoded   uint64
	prevCycle uint64
	prevAddr  uint64
	lineNo    int
	finished  bool
	err       error // sticky
}

// asBufio reuses r's buffering when it already is a *bufio.Reader, so
// decoding stops exactly at the end of one trace on the shared reader;
// anything else gets wrapped (and the wrapper may buffer past the
// trace). To read framed back-to-back traces, pass one *bufio.Reader to
// every decode.
func asBufio(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReader(r)
}

// NewDecoder sniffs the stream: input starting with the binary magic is
// decoded as binary (v1 or v2), anything else as text. Short inputs
// (under four bytes) decode as text, which accepts the empty trace.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := asBufio(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		return newBinaryDecoder(br)
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return newTextDecoder(br), nil
}

// NewBinaryDecoder requires the binary format (v1 or v2); a missing
// magic is ErrBadFormat.
func NewBinaryDecoder(r io.Reader) (*Decoder, error) {
	return newBinaryDecoder(asBufio(r))
}

// NewTextDecoder reads the text format unconditionally.
func NewTextDecoder(r io.Reader) *Decoder {
	return newTextDecoder(asBufio(r))
}

func newTextDecoder(br *bufio.Reader) *Decoder {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64*1024), maxTextLine)
	return &Decoder{br: br, sc: sc, fmt: formatText}
}

// badOrIO classifies a low-level binary read failure: exhausted input
// and varint overflow are malformed input (ErrBadFormat); anything else
// is a genuine reader failure and keeps its identity in the chain (so
// e.g. an http.MaxBytesError surfaces through errors.As, and callers
// can tell a truncated stream from a broken disk).
func badOrIO(err error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errVarintOverflow) {
		//nbtivet:ignore senterr masking is the point: %w here would make errors.Is(err, io.EOF) true and corruption would read as clean end-of-stream
		return fmt.Errorf("%w: %s: %v", ErrBadFormat, msg, err)
	}
	return fmt.Errorf("trace: read: %s: %w", msg, err)
}

var errVarintOverflow = errors.New("trace: varint overflows a 64-bit integer")

// readUvarint is binary.ReadUvarint with an identifiable overflow error
// (the stdlib's is an unexported value badOrIO could only match by
// message text). Reader errors pass through untouched.
func readUvarint(br *bufio.Reader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return x, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, errVarintOverflow
}

// readVarint undoes the zig-zag encoding on top of readUvarint.
func readVarint(br *bufio.Reader) (int64, error) {
	ux, err := readUvarint(br)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

func newBinaryDecoder(br *bufio.Reader) (*Decoder, error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, badOrIO(err, "missing magic")
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, badOrIO(err, "missing version")
	}
	d := &Decoder{br: br}
	switch ver {
	case binaryVersion:
		d.fmt = formatBinaryV1
	case binaryVersionStream:
		d.fmt = formatBinaryV2
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}
	nameLen, err := readUvarint(br)
	if err != nil {
		return nil, badOrIO(err, "name length")
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("%w: absurd name length %d", ErrBadFormat, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, badOrIO(err, "name bytes")
	}
	d.name = string(name)
	if err := checkName(d.name); err != nil {
		//nbtivet:ignore senterr ErrBadFormat is the decoder's only public sentinel; the checkName detail is message-only by design
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if d.fmt == formatBinaryV1 {
		count, err := readUvarint(br)
		if err != nil {
			return nil, badOrIO(err, "access count")
		}
		if count > 1<<32 {
			return nil, fmt.Errorf("%w: absurd access count %d", ErrBadFormat, count)
		}
		span, err := readUvarint(br)
		if err != nil {
			return nil, badOrIO(err, "cycle span")
		}
		d.declared, d.hasCount = count, true
		d.cycles = span
	}
	return d, nil
}

// Name returns the trace name. For binary input it is known up front;
// for text it settles once the header lines have been consumed by Next.
func (d *Decoder) Name() string { return d.name }

// DeclaredCount returns the header-claimed access count and whether the
// format carries one (binary v1 only). It is a claim, not a promise: the
// decoder never allocates from it.
func (d *Decoder) DeclaredCount() (uint64, bool) { return d.declared, d.hasCount }

// Decoded returns the number of accesses decoded so far.
func (d *Decoder) Decoded() uint64 { return d.decoded }

// More reports whether unread bytes follow the decoded trace. Binary
// decoding stops exactly at the end of one trace, so this distinguishes
// a cleanly exhausted input from one with trailing data (a concatenated
// or corrupt tail). It may block until the underlying reader delivers a
// byte or EOF — call it on bounded inputs (a file, an HTTP body), not
// on a live pipe that stays open.
func (d *Decoder) More() (bool, error) {
	_, err := d.br.Peek(1)
	switch {
	case err == nil:
		return true, nil
	case err == io.EOF:
		return false, nil
	default:
		return false, fmt.Errorf("trace: read: %w", err)
	}
}

// Cycles returns the trace's total cycle span. It is final once Next has
// returned io.EOF.
func (d *Decoder) Cycles() uint64 { return d.cycles }

// Next returns the next access. A clean end of stream is io.EOF; any
// malformed input is ErrBadFormat (wrapped); underlying reader failures
// are returned as themselves. Errors are sticky.
func (d *Decoder) Next() (Access, error) {
	if d.err != nil {
		return Access{}, d.err
	}
	a, err := d.next()
	if err != nil {
		d.err = err
		return Access{}, err
	}
	if d.decoded > 0 && a.Cycle < d.prevCycle {
		d.err = fmt.Errorf("%w: access %d at cycle %d after cycle %d",
			ErrUnordered, d.decoded, a.Cycle, d.prevCycle)
		return Access{}, d.err
	}
	d.prevCycle = a.Cycle
	d.decoded++
	return a, nil
}

func (d *Decoder) next() (Access, error) {
	switch d.fmt {
	case formatText:
		return d.nextText()
	default:
		return d.nextBinary()
	}
}

// finish validates the end-of-stream span against the last access and
// returns io.EOF.
func (d *Decoder) finish() (Access, error) {
	d.finished = true
	if d.decoded > 0 && d.cycles <= d.prevCycle {
		if d.fmt == formatText {
			// The text header may omit (or understate) the span; infer
			// the minimal covering one, as ReadText always has.
			d.cycles = d.prevCycle + 1
		} else {
			return Access{}, fmt.Errorf("%w: span %d cycles does not cover last access at cycle %d",
				ErrBadFormat, d.cycles, d.prevCycle)
		}
	}
	return Access{}, io.EOF
}

func (d *Decoder) nextBinary() (Access, error) {
	if d.finished {
		return Access{}, io.EOF
	}
	if d.fmt == formatBinaryV1 && d.decoded == d.declared {
		return d.finish()
	}
	var kind Kind
	if d.fmt == formatBinaryV2 {
		kb, err := d.br.ReadByte()
		if err != nil {
			return Access{}, badOrIO(err, "access %d kind", d.decoded)
		}
		if kb == streamEnd {
			span, err := readUvarint(d.br)
			if err != nil {
				return Access{}, badOrIO(err, "cycle span")
			}
			d.cycles = span
			return d.finish()
		}
		kind = Kind(kb)
		if !kind.Valid() {
			return Access{}, fmt.Errorf("%w: access %d kind %d", ErrBadFormat, d.decoded, kb)
		}
	}
	dc, err := readUvarint(d.br)
	if err != nil {
		return Access{}, badOrIO(err, "access %d cycle", d.decoded)
	}
	da, err := readVarint(d.br)
	if err != nil {
		return Access{}, badOrIO(err, "access %d addr", d.decoded)
	}
	if d.fmt == formatBinaryV1 {
		kb, err := d.br.ReadByte()
		if err != nil {
			return Access{}, badOrIO(err, "access %d kind", d.decoded)
		}
		kind = Kind(kb)
		if !kind.Valid() {
			return Access{}, fmt.Errorf("%w: access %d kind %d", ErrBadFormat, d.decoded, kb)
		}
	}
	cycle := d.prevCycle + dc
	if cycle < d.prevCycle {
		return Access{}, fmt.Errorf("%w: access %d cycle overflow", ErrBadFormat, d.decoded)
	}
	d.prevAddr += uint64(da)
	return Access{Cycle: cycle, Addr: d.prevAddr, Kind: kind}, nil
}

func (d *Decoder) nextText() (Access, error) {
	if d.finished {
		return Access{}, io.EOF
	}
	for d.sc.Scan() {
		d.lineNo++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := d.textHeader(line); err != nil {
				return Access{}, err
			}
			continue
		}
		var cycle, addr uint64
		var kindStr string
		if _, err := fmt.Sscanf(line, "%d %s %v", &cycle, &kindStr, &addr); err != nil {
			//nbtivet:ignore senterr Sscanf failures can carry io.EOF; %w would make corruption match clean end-of-stream
			return Access{}, fmt.Errorf("%w: line %d: %v", ErrBadFormat, d.lineNo, err)
		}
		var k Kind
		switch kindStr {
		case "R":
			k = Read
		case "W":
			k = Write
		default:
			return Access{}, fmt.Errorf("%w: line %d: kind %q", ErrBadFormat, d.lineNo, kindStr)
		}
		return Access{Cycle: cycle, Addr: addr, Kind: k}, nil
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An over-long token is malformed input, not an I/O failure.
			//nbtivet:ignore senterr deliberate demotion: bufio.ErrTooLong is reclassified as ErrBadFormat and must not stay matchable as an I/O error
			return Access{}, fmt.Errorf("%w: line %d: %v", ErrBadFormat, d.lineNo+1, err)
		}
		return Access{}, fmt.Errorf("trace: read: %w", err)
	}
	return d.finish()
}

func (d *Decoder) textHeader(line string) error {
	key, rest, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(line, "#")), " ")
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return nil
	}
	switch key {
	case "name":
		// rest preserves interior whitespace: collapsing it would make
		// the text form of "a  b" decode to a different trace — and a
		// different content address — than its binary form. (checkName
		// bans leading/trailing spaces, so line trimming loses nothing.)
		if err := checkName(rest); err != nil {
			//nbtivet:ignore senterr ErrBadFormat is the decoder's only public sentinel; the checkName detail is message-only by design
			return fmt.Errorf("%w: line %d: %v", ErrBadFormat, d.lineNo, err)
		}
		d.name = rest
	case "cycles":
		if _, err := fmt.Sscanf(rest, "%d", &d.cycles); err != nil {
			//nbtivet:ignore senterr Sscanf failures can carry io.EOF; %w would make corruption match clean end-of-stream
			return fmt.Errorf("%w: line %d: cycles header: %v", ErrBadFormat, d.lineNo, err)
		}
	}
	return nil
}

// readAllPrealloc caps the slice capacity taken on faith from a header
// count; everything beyond it grows by appending as bytes actually arrive.
const readAllPrealloc = 4096

// ReadAll drains the decoder into a Trace, appending each access
// straight into the three columns. maxAccesses > 0 caps the accepted
// access count (exceeding it returns ErrTooLarge); <= 0 means
// unbounded. Memory is proportional to the decoded access count, never
// to a header claim.
func (d *Decoder) ReadAll(maxAccesses int) (*Trace, error) {
	t := &Trace{}
	if n, ok := d.DeclaredCount(); ok {
		if maxAccesses > 0 && n > uint64(maxAccesses) {
			return nil, fmt.Errorf("%w: header claims %d accesses, cap is %d", ErrTooLarge, n, maxAccesses)
		}
		if n > 0 {
			c := int(min(n, readAllPrealloc))
			t.Cycles, t.Addrs, t.Kinds = make([]uint64, 0, c), make([]uint64, 0, c), make([]Kind, 0, c)
		}
	}
	for {
		a, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if maxAccesses > 0 && t.Len() >= maxAccesses {
			return nil, fmt.Errorf("%w: more than %d accesses", ErrTooLarge, maxAccesses)
		}
		t.Cycles = append(t.Cycles, a.Cycle)
		t.Addrs = append(t.Addrs, a.Addr)
		t.Kinds = append(t.Kinds, a.Kind)
	}
	t.Name, t.Span = d.Name(), d.Cycles()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Encoder writes a trace incrementally in binary v2, which carries no
// up-front count or span: accesses stream out as they arrive and the
// cycle span trails in the terminator. The header (magic, version, name)
// is written by NewEncoder; Close writes the terminator and flushes.
type Encoder struct {
	bw        *bufio.Writer
	buf       [binary.MaxVarintLen64]byte
	prevCycle uint64
	prevAddr  uint64
	count     uint64
	closed    bool
	err       error // sticky
}

// NewEncoder starts a stream with the given trace name (which must pass
// the same control-character rule as Trace.Validate).
func NewEncoder(w io.Writer, name string) (*Encoder, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	e := &Encoder{bw: bufio.NewWriter(w)}
	if _, err := e.bw.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	if err := e.bw.WriteByte(binaryVersionStream); err != nil {
		return nil, err
	}
	if err := e.putUvarint(uint64(len(name))); err != nil {
		return nil, err
	}
	if _, err := e.bw.WriteString(name); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Encoder) putUvarint(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

func (e *Encoder) putVarint(v int64) error {
	n := binary.PutVarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

// Encoded returns the number of accesses written so far.
func (e *Encoder) Encoded() uint64 { return e.count }

// Write appends one access. Cycle stamps must be non-decreasing and the
// kind valid; violations fail immediately rather than at decode time,
// and — like I/O failures — latch the encoder, so a caller that only
// checks Close's error cannot end up with a cleanly-terminated stream
// silently missing the rejected access.
func (e *Encoder) Write(a Access) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		e.err = errors.New("trace: encoder closed")
		return e.err
	}
	if !a.Kind.Valid() {
		e.err = fmt.Errorf("trace: access %d has invalid kind %d", e.count, a.Kind)
		return e.err
	}
	if e.count > 0 && a.Cycle < e.prevCycle {
		e.err = fmt.Errorf("%w: access %d at cycle %d after cycle %d",
			ErrUnordered, e.count, a.Cycle, e.prevCycle)
		return e.err
	}
	if err := e.bw.WriteByte(byte(a.Kind)); err != nil {
		e.err = err
		return err
	}
	if err := e.putUvarint(a.Cycle - e.prevCycle); err != nil {
		e.err = err
		return err
	}
	if err := e.putVarint(int64(a.Addr - e.prevAddr)); err != nil {
		e.err = err
		return err
	}
	e.prevCycle, e.prevAddr = a.Cycle, a.Addr
	e.count++
	return nil
}

// Close terminates the stream with the total cycle span and flushes.
// cycles == 0 infers the minimal span (last access cycle + 1, or 0 for
// an empty trace); a non-zero span must cover the last access. Close is
// not idempotent: a second call reports the encoder closed.
func (e *Encoder) Close(cycles uint64) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		e.err = errors.New("trace: encoder closed")
		return e.err
	}
	if cycles == 0 && e.count > 0 {
		cycles = e.prevCycle + 1
	}
	if e.count > 0 && cycles <= e.prevCycle {
		return fmt.Errorf("trace: span %d cycles does not cover last access at cycle %d",
			cycles, e.prevCycle)
	}
	e.closed = true
	if err := e.bw.WriteByte(streamEnd); err != nil {
		e.err = err
		return err
	}
	if err := e.putUvarint(cycles); err != nil {
		e.err = err
		return err
	}
	if err := e.bw.Flush(); err != nil {
		e.err = err
		return err
	}
	return nil
}

// EncodeStream writes t in the streaming v2 format (header, every
// access, terminator) in one call.
func EncodeStream(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	e, err := NewEncoder(w, t.Name)
	if err != nil {
		return err
	}
	for i, c := range t.Cycles {
		if err := e.Write(Access{Cycle: c, Addr: t.Addrs[i], Kind: t.Kinds[i]}); err != nil {
			return err
		}
	}
	return e.Close(t.Span)
}
