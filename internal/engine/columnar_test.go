package engine

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nbticache/internal/cas"
	"nbticache/internal/trace"
)

// openTraceBlobs opens the engine's persisted trace layer directly —
// the same store New wires up — so tests can rewrite blobs between
// engine lifetimes.
func openTraceBlobs(dir string) (*cas.DiskStore, error) {
	return cas.OpenDisk(filepath.Join(dir, "traces"), cas.Limits{})
}

// fuzzTrace builds a deterministic upload-shaped trace without the
// *testing.T plumbing of uploadableTrace (fuzz setup holds a *testing.F).
func fuzzTrace(name string, n int, seed int64) *trace.Trace {
	tr := &trace.Trace{Name: name}
	rng := rand.New(rand.NewSource(seed))
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(9) + 1)
		tr.Append(cycle, uint64(rng.Intn(1<<14)), trace.Kind(rng.Intn(2)))
	}
	tr.Span = cycle + 50
	return tr
}

// FuzzColumnarBlob drives decodeTraceBlob with arbitrary (key, bytes)
// pairs: the decoder must reject or accept, never panic or over-
// allocate, and anything accepted must verify its own content address
// and agree bit-for-bit with the wire decoder. The seeds pin the valid
// blob under its true key, the huge-count header, the magic/version
// edges, and blobs behind the retired row-form "NBTB" magic, which
// must be rejected.
func FuzzColumnarBlob(f *testing.F) {
	e := testEngine(f, 1)
	info, _, err := e.AddTrace(fuzzTrace("fuzz-seed", 600, 17))
	if err != nil {
		f.Fatal(err)
	}
	st, ok := e.store.resolve(info.ID)
	if !ok {
		f.Fatal("seed trace vanished")
	}
	nbtc, err := encodeTraceBlob(st)
	if err != nil {
		f.Fatal(err)
	}
	nbtb := append([]byte("NBTB\x01"), nbtc[len(traceBlobMagic)+1:]...)
	f.Add(info.ID, nbtc)
	f.Add(info.ID, nbtb)                                                                         // retired magic
	f.Add(info.ID, nbtc[:len(nbtc)/2])                                                           // torn columnar blob
	f.Add(info.ID, nbtb[:len(nbtb)/2])                                                           // torn retired blob
	f.Add("trace-0000", nbtc)                                                                    // misfiled
	f.Add(info.ID, []byte("NBTC\x01"))                                                           // headerless columnar
	f.Add(info.ID, []byte("NBTC\x07"))                                                           // unsupported version
	f.Add(info.ID, []byte("NBTB\x01"))                                                           // headerless retired
	f.Add(info.ID, []byte("XXXX\x01junk"))                                                       // wrong magic
	f.Add(info.ID, append([]byte("NBTC\x01\x00\x00\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f)) // absurd count claim
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		got, err := decodeTraceBlob(key, data)
		if err != nil {
			return
		}
		// Accepted: the trace must be simulation-grade and the blob
		// must answer for the key it was filed under.
		if verr := got.tr.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid trace: %v", verr)
		}
		id, _, err := TraceContentID(got.tr)
		if err != nil {
			t.Fatalf("accepted blob has no content address: %v", err)
		}
		if id != key {
			t.Fatalf("decoder accepted blob %s under key %s", id, key)
		}
		// Blob round trip: re-encode, decode, identical store entry.
		re, err := encodeTraceBlob(got)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		again, err := decodeTraceBlob(key, re)
		if err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		if !reflect.DeepEqual(again.info, got.info) || !reflect.DeepEqual(again.tr, got.tr) {
			t.Fatal("blob round trip diverged")
		}
		// Differential oracle against the wire decoder: the accepted
		// trace's canonical bytes, read back through trace.ReadBinary,
		// must be the same trace the column codecs produced.
		var wire bytes.Buffer
		if err := trace.WriteBinary(&wire, got.tr); err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		back, err := trace.ReadBinary(&wire)
		if err != nil {
			t.Fatalf("wire decode of accepted trace failed: %v", err)
		}
		if !reflect.DeepEqual(back, got.tr) {
			t.Fatal("column and wire decoders disagree")
		}
	})
}

// TestTruncatedTraceBlobQuarantined is the crash-mid-write drill: a
// trace blob torn in half on disk must degrade a warm start to
// re-derivation — quarantined and counted, never resident, never
// corrupting results — and re-uploading the same bytes must restore the
// same content address with the persisted job result still serving.
func TestTruncatedTraceBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	e1 := persistentEngine(t, dir)
	info, _, err := e1.AddTrace(uploadableTrace(t, "torn", 2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{TraceID: info.ID, Banks: 4}
	first, err := e1.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Tear the persisted frame mid-file: the shape a crash inside a
	// non-atomic writer would leave. (The store's own writes are temp +
	// rename, so this also proves the reader distrusts the rename
	// discipline rather than assuming it.)
	path := filepath.Join(dir, "traces", info.ID+".blob")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := persistentEngine(t, dir)
	if infos := e2.TraceInfos(); len(infos) != 0 {
		t.Fatalf("torn trace blob warm-loaded: %+v", infos)
	}
	if st := e2.Stats(); st.PersistCorruptions == 0 {
		t.Error("torn blob not counted as corruption")
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "traces", "quarantine")); err != nil || len(entries) == 0 {
		t.Errorf("torn blob not quarantined: %v, %v", entries, err)
	}
	// The already-simulated point still serves from the (untouched)
	// result store — content-addressed results do not depend on the
	// trace staying resident — and the bits match the pre-crash run.
	res, err := e2.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("persisted job result not served after trace corruption")
	}
	if !reflect.DeepEqual(res.Run, first.Run) || !reflect.DeepEqual(res.Projection, first.Projection) {
		t.Error("restored result diverges from the pre-crash simulation")
	}
	// A fresh point on the lost trace needs a simulation, and fails as
	// unknown — a re-derivable condition, not a wrong answer.
	fresh := JobSpec{TraceID: info.ID, Banks: 8}
	if _, err := e2.RunJob(context.Background(), fresh); err == nil || !strings.Contains(err.Error(), "unknown trace") {
		t.Fatalf("fresh job against torn trace: %v, want unknown-trace error", err)
	}
	// Re-uploading the same bytes restores the same content address and
	// the fresh point simulates normally.
	info2, existed, err := e2.AddTrace(uploadableTrace(t, "torn", 2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if existed || info2.ID != info.ID {
		t.Fatalf("re-upload: existed=%v id=%s, want fresh admission of %s", existed, info2.ID, info.ID)
	}
	if res, err := e2.RunJob(context.Background(), fresh); err != nil || res.Failed() {
		t.Fatalf("fresh job after re-upload: %+v, %v", res, err)
	}
}

// TestLegacyTraceBlobDiscarded pins what happens to a blob in the
// retired row-form (NBTB) format: the warm start treats it like any
// corrupt blob — counted in PersistCorruptions, deleted, never resident
// — while the job results computed from that trace still serve.
func TestLegacyTraceBlobDiscarded(t *testing.T) {
	dir := t.TempDir()
	e1 := persistentEngine(t, dir)
	info, _, err := e1.AddTrace(uploadableTrace(t, "legacy", 1500, 23))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{TraceID: info.ID, Banks: 2}
	first, err := e1.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := e1.store.resolve(info.ID)
	if !ok {
		t.Fatal("stored trace vanished")
	}
	// The row-form blob an earlier version would have left: signature,
	// then the trace's canonical binary encoding.
	w := &blobWriter{}
	w.raw([]byte("NBTB\x01"))
	sig := st.info.Signature
	w.uvarint(uint64(sig.Banks))
	w.f64s(sig.UsefulIdleness)
	w.f64s(sig.SleepFractions)
	w.uvarint(sig.Breakeven)
	var wire bytes.Buffer
	if err := trace.WriteBinary(&wire, st.tr); err != nil {
		t.Fatal(err)
	}
	w.raw(wire.Bytes())
	e1.Close()

	// Rewrite the persisted trace through the store's own framing, so
	// only the engine's typed decode can object to it.
	blobs, err := openTraceBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := blobs.Put(info.ID, w.buf); err != nil {
		t.Fatal(err)
	}
	if err := blobs.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := persistentEngine(t, dir)
	if infos := e2.TraceInfos(); len(infos) != 0 {
		t.Fatalf("NBTB blob warm-loaded: %+v", infos)
	}
	if got := e2.Stats().PersistCorruptions; got != 1 {
		t.Errorf("PersistCorruptions = %d, want 1", got)
	}
	res, err := e2.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("persisted job result not served after the trace was discarded")
	}
	if !reflect.DeepEqual(res.Run, first.Run) || !reflect.DeepEqual(res.Projection, first.Projection) {
		t.Error("served result diverges from the original simulation")
	}
	if got := e2.Stats().RunsExecuted; got != 0 {
		t.Errorf("runs executed = %d, want 0", got)
	}
	e2.Close()
	blobs2, err := openTraceBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer blobs2.Close()
	if _, err := blobs2.Get(info.ID); err == nil {
		t.Error("NBTB blob survived the warm start")
	}
}
