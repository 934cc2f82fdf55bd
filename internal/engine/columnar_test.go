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

// encodeLegacyTraceBlob renders the row-form (NBTB v1) blob earlier
// versions persisted: signature fields, then the trace's canonical
// binary encoding. Production code only decodes this format now, so
// the writer lives with the tests that prove the compatibility path.
func encodeLegacyTraceBlob(st *storedTrace) ([]byte, error) {
	w := &blobWriter{}
	w.raw([]byte(traceBlobMagic))
	w.byte(blobVersion)
	sig := st.info.Signature
	w.uvarint(uint64(sig.Banks))
	w.f64s(sig.UsefulIdleness)
	w.f64s(sig.SleepFractions)
	w.uvarint(sig.Breakeven)
	var buf bytes.Buffer
	if err := st.cols.WriteBinaryColumns(&buf); err != nil {
		return nil, err
	}
	w.raw(buf.Bytes())
	return w.buf, nil
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
	tr.Cycles = cycle + 50
	return tr
}

// FuzzColumnarBlob drives decodeTraceBlob with arbitrary (key, bytes)
// pairs: the decoder must reject or accept, never panic or over-
// allocate, and anything accepted must verify its own content address
// and agree bit-for-bit with the legacy row-form decoder. The seeds pin
// both valid formats under their true keys, the huge-count header, and
// the magic/version edges.
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
	nbtb, err := encodeLegacyTraceBlob(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(info.ID, nbtc)
	f.Add(info.ID, nbtb)
	f.Add(info.ID, nbtc[:len(nbtc)/2])                                                           // torn columnar blob
	f.Add(info.ID, nbtb[:len(nbtb)/2])                                                           // torn legacy blob
	f.Add("trace-0000", nbtc)                                                                    // misfiled
	f.Add(info.ID, []byte("NBTC\x01"))                                                           // headerless columnar
	f.Add(info.ID, []byte("NBTC\x07"))                                                           // unsupported version
	f.Add(info.ID, []byte("NBTB\x01"))                                                           // headerless legacy
	f.Add(info.ID, []byte("XXXX\x01junk"))                                                       // wrong magic
	f.Add(info.ID, append([]byte("NBTC\x01\x00\x00\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f)) // absurd count claim
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		got, _, err := decodeTraceBlob(key, data)
		if err != nil {
			return
		}
		// Accepted: the columns must be simulation-grade and the blob
		// must answer for the key it was filed under.
		if verr := got.cols.Validate(); verr != nil {
			t.Fatalf("decoder accepted invalid columns: %v", verr)
		}
		id, _, err := ColumnsContentID(got.cols)
		if err != nil {
			t.Fatalf("accepted blob has no content address: %v", err)
		}
		if id != key {
			t.Fatalf("decoder accepted blob %s under key %s", id, key)
		}
		// Columnar round trip: re-encode, decode, identical store entry.
		re, err := encodeTraceBlob(got)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		again, legacy, err := decodeTraceBlob(key, re)
		if err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		if legacy {
			t.Fatal("re-encoded blob reported as legacy")
		}
		if !reflect.DeepEqual(again.info, got.info) || !reflect.DeepEqual(again.cols, got.cols) {
			t.Fatal("columnar round trip diverged")
		}
		// Differential oracle against the row-form decoder: the same
		// trace rendered as a legacy NBTB blob must decode to the same
		// bits — info and columns — as the columnar path produced.
		lb, err := encodeLegacyTraceBlob(got)
		if err != nil {
			t.Fatalf("legacy render failed: %v", err)
		}
		rowSt, legacy, err := decodeTraceBlob(key, lb)
		if err != nil {
			t.Fatalf("legacy decode of accepted trace failed: %v", err)
		}
		if !legacy {
			t.Fatal("NBTB blob not reported as legacy")
		}
		if !reflect.DeepEqual(rowSt.info, got.info) || !reflect.DeepEqual(rowSt.cols, got.cols) {
			t.Fatal("columnar and legacy decoders disagree")
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

// TestLegacyTraceBlobWarmLoad proves the compatibility contract: a
// store holding only row-form (NBTB) blobs warm-loads with zero
// re-measurement and zero re-simulation, and the first load transcodes
// the blob to columnar (NBTC) form in place.
func TestLegacyTraceBlobWarmLoad(t *testing.T) {
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
	legacyBlob, err := encodeLegacyTraceBlob(st)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Rewrite the persisted trace as the row-form blob an earlier
	// version would have left, through the store's own framing.
	blobs, err := openTraceBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := blobs.Put(info.ID, legacyBlob); err != nil {
		t.Fatal(err)
	}
	if err := blobs.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := persistentEngine(t, dir)
	infos := e2.TraceInfos()
	if len(infos) != 1 || infos[0].ID != info.ID {
		t.Fatalf("legacy blob did not warm-load: %+v", infos)
	}
	if !reflect.DeepEqual(infos[0].Signature, info.Signature) {
		t.Error("signature did not survive the legacy format")
	}
	res, err := e2.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("job re-simulated after legacy warm load")
	}
	if !reflect.DeepEqual(res.Run, first.Run) || !reflect.DeepEqual(res.Projection, first.Projection) {
		t.Error("legacy-loaded result diverges from the original simulation")
	}
	stats := e2.Stats()
	if stats.RunsExecuted != 0 {
		t.Errorf("runs executed after legacy warm load = %d, want 0", stats.RunsExecuted)
	}
	if stats.TracesBuilt != 0 {
		t.Errorf("synthetic traces built after legacy warm load = %d, want 0", stats.TracesBuilt)
	}
	// The load transcoded the blob in place: the persisted form is
	// columnar now, and it still decodes to the same entry.
	blobs2, err := openTraceBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer blobs2.Close()
	payload, err := blobs2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(payload, []byte(traceBlobMagicCol)) {
		t.Fatalf("blob not transcoded to %s after legacy load (starts %q)", traceBlobMagicCol, payload[:4])
	}
	got, legacy, err := decodeTraceBlob(info.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	if legacy {
		t.Error("transcoded blob still reports legacy")
	}
	if !reflect.DeepEqual(got.cols, st.cols) {
		t.Error("transcoded blob decodes to different columns")
	}
}
