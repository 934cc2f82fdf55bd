package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"nbticache/internal/core"
	"nbticache/internal/pmu"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// This file is the engine's at-rest codec: the versioned binary forms
// job results and uploaded traces take inside a cas.Store. Both blobs
// open with a magic and a version byte so a future layout change reads
// old stores instead of misparsing them, and both are self-verifying
// against their content address — a job blob re-derives its job ID from
// the decoded spec, a trace blob re-hashes the embedded canonical trace
// encoding — so a blob filed under the wrong key is rejected exactly
// like bit rot, independent of the store's own framing checksum.
//
// Job-result blob ("NBJR" v1): the normalised JobSpec, the RunResult,
// and the Projection, fields in struct order; uvarint/varint integers,
// IEEE-754 bits for floats, length-prefixed strings. Only successful
// results are persisted (failures are never cached), so Err/Canceled/
// Cached are not part of the format. Per-bank idle histograms are a
// diagnostic enabled only by direct core use — engine results never
// carry them — and are not persisted.
//
// Trace blob ("NBTC" v1, columnar): the admission-time Signature, then
// the trace in struct-of-arrays column form — name, access count, span,
// a delta-uvarint cycles column, a zig-zag-delta-varint addrs column,
// and a run-length-encoded kinds column (internal/trace's column
// codecs). The decoded columns are exactly the layout the batch kernel
// consumes, so a warm start deserialises straight into simulation input
// with zero per-access struct materialisation or transposition. The
// blob stays self-verifying: the decoder re-derives the content address
// by streaming the canonical binary (v1) encoding of the decoded trace
// through the hash.

const (
	jobBlobMagic   = "NBJR"
	traceBlobMagic = "NBTC"
	blobVersion    = 1
)

// ErrBadBlob is returned when a stored blob does not decode. The engine
// treats it like store-level corruption: drop, count, re-derive.
var ErrBadBlob = errors.New("engine: bad blob")

// Decode caps: a blob is trusted no further than the store's checksum,
// so claimed lengths are bounded before they size anything.
const (
	maxBlobString = 1 << 12
	maxBlobSlice  = 1 << 16
)

// blobWriter accumulates the wire form.
type blobWriter struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (w *blobWriter) raw(p []byte) { w.buf = append(w.buf, p...) }
func (w *blobWriter) byte(b byte)  { w.buf = append(w.buf, b) }
func (w *blobWriter) uvarint(v uint64) {
	w.buf = append(w.buf, w.tmp[:binary.PutUvarint(w.tmp[:], v)]...)
}
func (w *blobWriter) varint(v int64) {
	w.buf = append(w.buf, w.tmp[:binary.PutVarint(w.tmp[:], v)]...)
}
func (w *blobWriter) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.raw(b[:])
}
func (w *blobWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *blobWriter) f64s(vs []float64) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

// blobReader consumes the wire form, latching the first error so
// callers can decode a full struct and check once.
type blobReader struct {
	b   []byte
	err error
}

func (r *blobReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadBlob, fmt.Sprintf(format, args...))
	}
}

func (r *blobReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *blobReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *blobReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("truncated byte")
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

func (r *blobReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *blobReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxBlobString || n > uint64(len(r.b)) {
		r.fail("string length %d out of range", n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *blobReader) f64s() []float64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxBlobSlice || n*8 > uint64(len(r.b)) {
		r.fail("slice length %d out of range", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

// intFromU converts a decoded uvarint back to int, guarding overflow.
func (r *blobReader) intFromU() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// done enforces full consumption: trailing bytes mean a framing bug or
// tampering, never something to ignore.
func (r *blobReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadBlob, len(r.b))
	}
	return nil
}

// --- job results ---

// encodeJobResult renders a successful result's persistent form.
// Failures are never encoded (the cache does not hold them), so a
// result with an error, or without both run and projection, is refused.
func encodeJobResult(res *JobResult) ([]byte, error) {
	if res == nil || res.Err != "" || res.Run == nil || res.Projection == nil {
		return nil, fmt.Errorf("engine: only complete successful results are persistable")
	}
	w := &blobWriter{buf: make([]byte, 0, 512)}
	w.raw([]byte(jobBlobMagic))
	w.byte(blobVersion)
	encodeSpec(w, res.Spec)
	encodeRun(w, res.Run)
	encodeProjection(w, res.Projection)
	return w.buf, nil
}

// decodeJobResult parses a blob and verifies it answers for key: the
// job ID re-derived from the decoded spec must match, so a blob filed
// under another job's address is rejected.
func decodeJobResult(key string, blob []byte) (*JobResult, error) {
	r := &blobReader{b: blob}
	if len(blob) < len(jobBlobMagic)+1 || string(blob[:len(jobBlobMagic)]) != jobBlobMagic {
		return nil, fmt.Errorf("%w: not a job-result blob", ErrBadBlob)
	}
	r.b = r.b[len(jobBlobMagic):]
	if v := r.byte(); v != blobVersion {
		return nil, fmt.Errorf("%w: unsupported job-result version %d", ErrBadBlob, v)
	}
	spec := decodeSpec(r)
	run := decodeRun(r)
	proj := decodeProjection(r)
	if err := r.done(); err != nil {
		return nil, err
	}
	res := &JobResult{ID: spec.ID(), Spec: spec, Run: run, Projection: proj}
	if res.ID != key {
		return nil, fmt.Errorf("%w: blob is job %s, filed under %s", ErrBadBlob, res.ID, key)
	}
	return res, nil
}

func encodeSpec(w *blobWriter, s JobSpec) {
	w.str(s.Bench)
	w.str(s.TraceID)
	w.uvarint(uint64(s.SizeKB))
	w.uvarint(uint64(s.LineBytes))
	w.uvarint(uint64(s.Banks))
	w.str(s.Policy)
	w.str(s.Mode)
	w.uvarint(uint64(s.Epochs))
	w.uvarint(s.UpdateEvery)
}

func decodeSpec(r *blobReader) JobSpec {
	return JobSpec{
		Bench:       r.str(),
		TraceID:     r.str(),
		SizeKB:      r.intFromU(),
		LineBytes:   r.intFromU(),
		Banks:       r.intFromU(),
		Policy:      r.str(),
		Mode:        r.str(),
		Epochs:      r.intFromU(),
		UpdateEvery: r.uvarint(),
	}
}

func encodeRun(w *blobWriter, run *core.RunResult) {
	w.str(run.Name)
	w.uvarint(uint64(run.Banks))
	w.str(run.PolicyName)
	w.uvarint(run.Reads)
	w.uvarint(run.Writes)
	w.uvarint(run.Hits)
	w.uvarint(run.Misses)
	w.uvarint(run.SpanCycles)
	w.uvarint(run.Updates)
	w.uvarint(run.Breakeven)
	w.uvarint(uint64(run.CounterWidth))
	encodeBankStats(w, run.RegionStats)
	encodeBankStats(w, run.BankStats)
	encodeBreakdown(w, run.Energy)
	encodeBreakdown(w, run.Baseline)
	w.f64(run.Savings)
}

func decodeRun(r *blobReader) *core.RunResult {
	return &core.RunResult{
		Name:         r.str(),
		Banks:        r.intFromU(),
		PolicyName:   r.str(),
		Reads:        r.uvarint(),
		Writes:       r.uvarint(),
		Hits:         r.uvarint(),
		Misses:       r.uvarint(),
		SpanCycles:   r.uvarint(),
		Updates:      r.uvarint(),
		Breakeven:    r.uvarint(),
		CounterWidth: r.intFromU(),
		RegionStats:  decodeBankStats(r),
		BankStats:    decodeBankStats(r),
		Energy:       decodeBreakdown(r),
		Baseline:     decodeBreakdown(r),
		Savings:      r.f64(),
	}
}

func encodeBankStats(w *blobWriter, stats []pmu.BankStats) {
	w.uvarint(uint64(len(stats)))
	for _, s := range stats {
		w.uvarint(s.Accesses)
		w.f64(s.UsefulIdleness)
		w.f64(s.SleepFraction)
		w.uvarint(s.SleepCycles)
		w.uvarint(s.SleepIntervals)
		w.uvarint(s.Wakeups)
	}
}

func decodeBankStats(r *blobReader) []pmu.BankStats {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each entry is at least 5 bytes on the wire; bound before sizing.
	if n > maxBlobSlice || n*5 > uint64(len(r.b)) {
		r.fail("bank-stats length %d out of range", n)
		return nil
	}
	out := make([]pmu.BankStats, n)
	for i := range out {
		out[i] = pmu.BankStats{
			Accesses:       r.uvarint(),
			UsefulIdleness: r.f64(),
			SleepFraction:  r.f64(),
			SleepCycles:    r.uvarint(),
			SleepIntervals: r.uvarint(),
			Wakeups:        r.uvarint(),
		}
	}
	return out
}

func encodeBreakdown(w *blobWriter, b power.Breakdown) {
	w.f64(b.Dynamic)
	w.f64(b.Leakage)
	w.f64(b.SleepLeakage)
	w.f64(b.Transitions)
}

func decodeBreakdown(r *blobReader) power.Breakdown {
	return power.Breakdown{
		Dynamic:      r.f64(),
		Leakage:      r.f64(),
		SleepLeakage: r.f64(),
		Transitions:  r.f64(),
	}
}

func encodeProjection(w *blobWriter, p *core.Projection) {
	w.str(p.PolicyName)
	w.uvarint(uint64(p.Epochs))
	w.f64s(p.BankDuty)
	w.f64s(p.BankLifetimeYears)
	w.f64(p.LifetimeYears)
	w.f64(p.ShareError)
}

func decodeProjection(r *blobReader) *core.Projection {
	return &core.Projection{
		PolicyName:        r.str(),
		Epochs:            r.intFromU(),
		BankDuty:          r.f64s(),
		BankLifetimeYears: r.f64s(),
		LifetimeYears:     r.f64(),
		ShareError:        r.f64(),
	}
}

// --- uploaded traces ---

// encodeTraceBlob renders a stored trace's persistent form (NBTC): the
// signature measured at admission, then the trace's columns — each
// encoded with the column codecs the warm start decodes straight into
// kernel input.
func encodeTraceBlob(st *storedTrace) ([]byte, error) {
	if st == nil || st.info.Signature == nil {
		return nil, fmt.Errorf("engine: unmeasured trace is not persistable")
	}
	tr := st.tr
	w := &blobWriter{buf: make([]byte, 0, 256+tr.Len()*3)}
	w.raw([]byte(traceBlobMagic))
	w.byte(blobVersion)
	sig := st.info.Signature
	w.uvarint(uint64(sig.Banks))
	w.f64s(sig.UsefulIdleness)
	w.f64s(sig.SleepFractions)
	w.uvarint(sig.Breakeven)
	w.str(tr.Name)
	w.uvarint(uint64(tr.Len()))
	w.uvarint(tr.Span)
	w.buf = trace.AppendCyclesColumn(w.buf, tr.Cycles)
	w.buf = trace.AppendAddrsColumn(w.buf, tr.Addrs)
	w.buf = trace.AppendKindsColumn(w.buf, tr.Kinds)
	return w.buf, nil
}

// decodeTraceBlob parses an NBTC blob and verifies the embedded trace
// hashes to key — the full content-address check, so a damaged or
// misfiled trace never re-enters the store.
func decodeTraceBlob(key string, blob []byte) (*storedTrace, error) {
	if len(blob) < len(traceBlobMagic) || string(blob[:len(traceBlobMagic)]) != traceBlobMagic {
		return nil, fmt.Errorf("%w: not a trace blob", ErrBadBlob)
	}
	r := &blobReader{b: blob[len(traceBlobMagic):]}
	if v := r.byte(); v != blobVersion {
		return nil, fmt.Errorf("%w: unsupported trace-blob version %d", ErrBadBlob, v)
	}
	sig := &workload.Signature{
		Banks:          r.intFromU(),
		UsefulIdleness: r.f64s(),
		SleepFractions: r.f64s(),
		Breakeven:      r.uvarint(),
	}
	name := r.str()
	count := r.uvarint()
	span := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	// Bound the claimed count before any column sizes an allocation:
	// each access costs at least one cycles-column byte and one
	// addrs-column byte of the remaining payload.
	if count*2 > uint64(len(r.b)) {
		return nil, fmt.Errorf("%w: access count %d exceeds %d payload bytes", ErrBadBlob, count, len(r.b))
	}
	// Both halves of these wraps are %w: a corrupt blob matches
	// ErrBadBlob, and the column decoders' own taxonomy
	// (trace.ErrBadFormat) stays matchable through the chain.
	cycles, rest, err := trace.DecodeCyclesColumn(r.b, int(count))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlob, err)
	}
	addrs, rest, err := trace.DecodeAddrsColumn(rest, int(count))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlob, err)
	}
	kinds, rest, err := trace.DecodeKindsColumn(rest, int(count))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlob, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBlob, len(rest))
	}
	tr := &trace.Trace{Name: name, Cycles: cycles, Addrs: addrs, Kinds: kinds, Span: span}
	// TraceContentID validates the trace before hashing it.
	id, size, err := TraceContentID(tr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlob, err)
	}
	if id != key {
		return nil, fmt.Errorf("%w: blob is trace %s, filed under %s", ErrBadBlob, id, key)
	}
	return newStoredTrace(id, size, sig, tr), nil
}
