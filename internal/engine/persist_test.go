package engine

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nbticache/internal/cache"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

func persistentEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := New(Options{Workers: 2, Gen: testGen, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestJobResultCodecRoundTrip: a real result survives the versioned
// binary codec bit-for-bit, and the decoder rejects misfiled and
// damaged blobs instead of panicking.
func TestJobResultCodecRoundTrip(t *testing.T) {
	e := testEngine(t, 1)
	spec := JobSpec{Bench: "sha", Banks: 4, Mode: ModePowerGated, UpdateEvery: 512}
	res, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeJobResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJobResult(res.ID, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != res.ID || !reflect.DeepEqual(got.Spec, res.Spec) {
		t.Errorf("spec round trip: got %+v, want %+v", got.Spec, res.Spec)
	}
	if !reflect.DeepEqual(got.Run, res.Run) {
		t.Errorf("run round trip diverged:\ngot  %+v\nwant %+v", got.Run, res.Run)
	}
	if !reflect.DeepEqual(got.Projection, res.Projection) {
		t.Errorf("projection round trip diverged:\ngot  %+v\nwant %+v", got.Projection, res.Projection)
	}

	// Misfiled: the blob answers only for its own job ID.
	other := JobSpec{Bench: "sha", Banks: 8}.ID()
	if _, err := decodeJobResult(other, blob); err == nil {
		t.Error("blob accepted under another job's address")
	}
	// Damaged: every truncation is an error, never a panic or a
	// silently partial result.
	for i := 0; i < len(blob); i++ {
		if _, err := decodeJobResult(res.ID, blob[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
	// Failures are not persistable.
	if _, err := encodeJobResult(&JobResult{ID: "job-x", Err: "boom"}); err == nil {
		t.Error("failed result encoded")
	}
}

// TestTraceBlobCodecRoundTrip: the persisted trace form (signature +
// canonical encoding) reproduces the stored trace exactly and verifies
// its own content address.
func TestTraceBlobCodecRoundTrip(t *testing.T) {
	e := testEngine(t, 1)
	info, _, err := e.AddTrace(uploadableTrace(t, "roundtrip", 1500, 3))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := e.store.resolve(info.ID)
	if !ok {
		t.Fatal("stored trace vanished")
	}
	blob, err := encodeTraceBlob(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTraceBlob(info.ID, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.info, st.info) {
		t.Errorf("info round trip:\ngot  %+v\nwant %+v", got.info, st.info)
	}
	if !reflect.DeepEqual(got.tr, st.tr) {
		t.Error("trace columns did not round trip")
	}
	if _, err := decodeTraceBlob("trace-0000", blob); err == nil {
		t.Error("trace blob accepted under another content address")
	}
}

// TestTraceBlobErrorChain: a blob whose embedded trace encoding is
// corrupt must match both ErrBadBlob and the trace decoder's own
// sentinel through one errors.Is chain. The chain used to break at the
// engine layer — decodeTraceBlob wrapped the decoder error with %v —
// so errors.Is(err, trace.ErrBadFormat) was silently false and callers
// could not tell a malformed embedded trace from a misfiled one
// (nbtivet senterr regression).
func TestTraceBlobErrorChain(t *testing.T) {
	e := testEngine(t, 1)
	info, _, err := e.AddTrace(uploadableTrace(t, "chain", 900, 2))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := e.store.resolve(info.ID)
	if !ok {
		t.Fatal("stored trace vanished")
	}
	blob, err := encodeTraceBlob(st)
	if err != nil {
		t.Fatal(err)
	}
	// The trace columns sit at the tail of the blob; truncating them
	// leaves the header and signature intact and makes only the embedded
	// trace malformed.
	_, err = decodeTraceBlob(info.ID, blob[:len(blob)-3])
	if err == nil {
		t.Fatal("truncated trace section decoded")
	}
	if !errors.Is(err, ErrBadBlob) {
		t.Errorf("errors.Is(err, ErrBadBlob) = false for %v", err)
	}
	if !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("errors.Is(err, trace.ErrBadFormat) = false for %v; the wrap chain is broken", err)
	}
	// The decoder's masking taxonomy must survive the extra layer: a
	// truncation is malformed input, never a clean end-of-stream.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation leaked an io sentinel through the chain: %v", err)
	}
}

// TestEngineWarmRestart is the restart-durability acceptance test: an
// engine uploads a trace and completes jobs, closes, and a second
// engine on the same data directory serves both without redoing any
// work — the counters prove zero re-simulation.
func TestEngineWarmRestart(t *testing.T) {
	dir := t.TempDir()
	benchSpec := JobSpec{Bench: "sha", Banks: 4}

	e1 := persistentEngine(t, dir)
	info, _, err := e1.AddTrace(uploadableTrace(t, "durable", 2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	traceSpec := JobSpec{TraceID: info.ID, Banks: 2}
	if _, err := e1.RunJob(context.Background(), benchSpec); err != nil {
		t.Fatal(err)
	}
	first, err := e1.RunJob(context.Background(), traceSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Persistence is write-behind: drain before counting landed blobs.
	e1.Drain()
	if st := e1.Stats(); !st.Persistent || st.ResultBlobs != 2 || st.TraceBlobs != 1 {
		t.Fatalf("pre-restart persistence state: %+v", st)
	}
	e1.Close()

	e2 := persistentEngine(t, dir)
	// The uploaded trace is resident again, signature included, with no
	// re-measurement.
	infos := e2.TraceInfos()
	if len(infos) != 1 || infos[0].ID != info.ID {
		t.Fatalf("traces after restart: %+v", infos)
	}
	if !reflect.DeepEqual(infos[0].Signature, info.Signature) {
		t.Errorf("signature did not survive restart:\ngot  %+v\nwant %+v", infos[0].Signature, info.Signature)
	}
	// Both jobs resolve from disk as cache hits.
	for _, spec := range []JobSpec{benchSpec, traceSpec} {
		res, err := e2.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Errorf("job %s re-simulated after restart", spec.ID())
		}
		if res.Run == nil || res.Projection == nil {
			t.Fatalf("restored result incomplete: %+v", res)
		}
	}
	// And the trace-backed result matches the original measurement.
	again, err := e2.RunJob(context.Background(), traceSpec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Run.Misses != first.Run.Misses || again.Projection.LifetimeYears != first.Projection.LifetimeYears {
		t.Error("restored result diverges from the pre-restart simulation")
	}
	// Zero re-simulation, proven by counters: no runs executed, no
	// synthetic traces generated, every job a persistence hit.
	st := e2.Stats()
	if st.RunsExecuted != 0 {
		t.Errorf("runs executed after restart = %d, want 0", st.RunsExecuted)
	}
	if st.TracesBuilt != 0 {
		t.Errorf("synthetic traces built after restart = %d, want 0", st.TracesBuilt)
	}
	if st.CacheMisses != 0 || st.CacheHits < 2 {
		t.Errorf("cache hits/misses after restart = %d/%d, want >=2/0", st.CacheHits, st.CacheMisses)
	}
	if st.PersistHits < 3 { // two job blobs (one read twice) + one trace blob
		t.Errorf("persist hits after restart = %d, want >= 3", st.PersistHits)
	}
	// The content address resolves without any prior call this process.
	if _, ok := e2.Job(benchSpec.ID()); !ok {
		t.Error("Job lookup by content address missed after restart")
	}
}

// TestCorruptResultBlobResimulated: a bit-flipped result blob is
// quarantined on read and the job transparently re-simulates — counters
// record the corruption, nothing fails.
func TestCorruptResultBlobResimulated(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Bench: "sha", Banks: 4}

	e1 := persistentEngine(t, dir)
	if _, err := e1.RunJob(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	path := filepath.Join(dir, "jobs", spec.ID()+".blob")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-40] ^= 0xff // payload byte, inside the checksum's reach
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := persistentEngine(t, dir)
	res, err := e2.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatalf("corrupt blob was fatal: %v", err)
	}
	if res.Cached {
		t.Error("corrupt blob served as a cache hit")
	}
	st := e2.Stats()
	if st.RunsExecuted != 1 {
		t.Errorf("runs executed = %d, want 1 (re-simulation)", st.RunsExecuted)
	}
	if st.PersistCorruptions == 0 {
		t.Error("corruption not counted")
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "jobs", "quarantine")); err != nil || len(entries) == 0 {
		t.Errorf("bad blob not quarantined: %v, %v", entries, err)
	}
	// The re-simulated result was re-persisted: a third engine hits.
	e2.Close()
	e3 := persistentEngine(t, dir)
	if res, err := e3.RunJob(context.Background(), spec); err != nil || !res.Cached {
		t.Errorf("re-persisted result not served: cached=%v err=%v", res.Cached, err)
	}
}

// TestDiskStoreCrashLeavesNoPartialResult: a temp file abandoned
// mid-write (the only window a crash can hit) is cleaned at reopen and
// never surfaces as a job result.
func TestDiskStoreCrashLeavesNoPartialResult(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Bench: "sha", Banks: 4}
	e1 := persistentEngine(t, dir)
	if _, err := e1.RunJob(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	stray := filepath.Join(dir, "jobs", ".tmp-crashed")
	if err := os.WriteFile(stray, []byte("NBJR partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := persistentEngine(t, dir)
	if _, err := os.Lstat(stray); !os.IsNotExist(err) {
		t.Error("crash leftover not cleaned at reopen")
	}
	if st := e2.Stats(); st.ResultBlobs != 1 || st.PersistCorruptions != 0 {
		t.Errorf("state after crash recovery: %+v", st)
	}
	if res, err := e2.RunJob(context.Background(), spec); err != nil || !res.Cached {
		t.Errorf("completed blob lost to crash recovery: cached=%v err=%v", res.Cached, err)
	}
}

// TestRemoveTracePinnedBySweep is the DELETE-during-sweep regression:
// removing a trace an in-flight sweep references must not break the
// sweep's jobs — the trace vanishes from lookups immediately and its
// storage is reclaimed when the sweep finishes.
func TestRemoveTracePinnedBySweep(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	blockingGen := func(g cache.Geometry) workload.GenParams {
		<-release // stalls the sweep's first (benchmark) job
		return testGen(g)
	}
	e, err := New(Options{Workers: 1, Gen: blockingGen, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	info, _, err := e.AddTrace(uploadableTrace(t, "pinned", 1500, 13))
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 blocks the single worker in trace generation; the
	// trace-backed jobs sit queued behind it when the DELETE lands.
	h, err := e.Submit(context.Background(), SweepSpec{Jobs: []JobSpec{
		{Bench: "sha"},
		{TraceID: info.ID, Banks: 2},
		{TraceID: info.ID, Banks: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}

	if !e.RemoveTrace(info.ID) {
		t.Fatal("RemoveTrace refused a pinned trace")
	}
	// Immediately invisible to lookups, listings and new submissions...
	if _, ok := e.TraceInfo(info.ID); ok {
		t.Error("condemned trace still listed by TraceInfo")
	}
	if len(e.TraceInfos()) != 0 {
		t.Error("condemned trace still in TraceInfos")
	}
	if _, err := e.Submit(context.Background(), SweepSpec{TraceIDs: []string{info.ID}}); err == nil || !strings.Contains(err.Error(), "unknown trace") {
		t.Errorf("new sweep referencing a condemned trace: err = %v", err)
	}
	// ...including to a direct (unpinned) RunJob at a fresh point: only
	// the pinned sweep may still resolve the condemned trace.
	if _, err := e.RunJob(context.Background(), JobSpec{TraceID: info.ID, Banks: 8}); err == nil || !strings.Contains(err.Error(), "unknown trace") {
		t.Errorf("direct RunJob resolved a condemned trace: err = %v", err)
	}

	close(release)
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// ...but the in-flight sweep's jobs all resolved it.
	for _, r := range res.Jobs {
		if r.Failed() {
			t.Errorf("pinned sweep job broke: %s", r.Err)
		}
	}
	// The sweep is over: the deferred removal completed, disk included.
	if _, ok := e.storedTraceByID(info.ID); ok {
		t.Error("condemned trace survived its last pin")
	}
	if st := e.Stats(); st.TracesStored != 0 || st.TraceBlobs != 0 {
		t.Errorf("trace storage not reclaimed: %+v", st)
	}
	if _, err := os.Lstat(filepath.Join(dir, "traces", info.ID+".blob")); !os.IsNotExist(err) {
		t.Error("trace blob file survived the deferred removal")
	}
}

// TestRemoveTraceUnpinnedIsImmediate: without pins the removal is
// complete at once (the pre-pinning behaviour, unchanged).
func TestRemoveTraceUnpinnedIsImmediate(t *testing.T) {
	dir := t.TempDir()
	e := persistentEngine(t, dir)
	info, _, err := e.AddTrace(uploadableTrace(t, "loose", 800, 17))
	if err != nil {
		t.Fatal(err)
	}
	if !e.RemoveTrace(info.ID) {
		t.Fatal("RemoveTrace failed")
	}
	if _, err := os.Lstat(filepath.Join(dir, "traces", info.ID+".blob")); !os.IsNotExist(err) {
		t.Error("blob survived an immediate removal")
	}
	// Re-admission after removal works and re-persists.
	if _, existed, err := e.AddTrace(uploadableTrace(t, "loose", 800, 17)); err != nil || existed {
		t.Fatalf("re-admission: existed=%v err=%v", existed, err)
	}
	if st := e.Stats(); st.TraceBlobs != 1 {
		t.Errorf("re-admitted trace not persisted: %+v", st)
	}
}

// TestDataDirFailsFast: an unusable data directory fails Engine
// construction with a clear error, not the first write.
func TestDataDirFailsFast(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{DataDir: filepath.Join(f, "nested")}); err == nil {
		t.Fatal("engine accepted a data dir through a regular file")
	} else if !strings.Contains(err.Error(), "data dir") {
		t.Errorf("unclear failure: %v", err)
	}
}

// TestWarmRestartRespectsTraceBound: a restart with a tighter trace
// bound loads oldest-first up to the bound instead of overshooting it.
func TestWarmRestartRespectsTraceBound(t *testing.T) {
	dir := t.TempDir()
	e1 := persistentEngine(t, dir)
	for i := 0; i < 3; i++ {
		if _, _, err := e1.AddTrace(uploadableTrace(t, "bulk", 600, int64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	e1.Close()

	e2, err := New(Options{Workers: 1, Gen: testGen, DataDir: dir, MaxStoredTraces: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	if got := e2.Stats().TracesStored; got != 2 {
		t.Errorf("resident traces after bounded restart = %d, want 2", got)
	}
}
