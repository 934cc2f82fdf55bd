package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nbticache/internal/cache"
	"nbticache/internal/engine"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

func testServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	return heldServer(t, nil)
}

// heldServer is testServer with every trace generation blocked until
// hold is closed; a nil hold blocks nothing.
func heldServer(t *testing.T, hold <-chan struct{}) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Options{
		Workers: 2,
		Gen: func(g cache.Geometry) workload.GenParams {
			if hold != nil {
				<-hold
			}
			return workload.GenParams{Geometry: g, Phases: 16, AccessesPerPhase: 64}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(NewServer(eng, Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestSweepOverHTTP is the acceptance path: a 36-job sweep (18 benches ×
// 2 bank counts) submitted over HTTP completes, and every per-job result
// is retrievable both from the sweep view and by job content address.
func TestSweepOverHTTP(t *testing.T) {
	ts, _ := testServer(t)

	body := `{"name":"acceptance","benches":[],"banks":[4,8]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if sub.Total < 32 {
		t.Fatalf("sweep has %d jobs, want >= 32", sub.Total)
	}
	if len(sub.JobIDs) != sub.Total {
		t.Fatalf("%d job ids for %d jobs", len(sub.JobIDs), sub.Total)
	}

	// Poll until done.
	deadline := time.Now().Add(2 * time.Minute)
	var sweep SweepResponse
	for {
		if code := getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if sweep.Status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep still running: %+v", sweep.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if sweep.Status.State != "done" {
		t.Fatalf("state %q, want done (%+v)", sweep.Status.State, sweep.Status)
	}
	if sweep.Status.Completed != sub.Total || sweep.Status.Failed != 0 {
		t.Fatalf("completion counts off: %+v", sweep.Status)
	}
	for i, r := range sweep.Jobs {
		if r == nil || r.Run == nil || r.Projection == nil {
			t.Fatalf("job %d missing payload: %+v", i, r)
		}
		if r.Projection.LifetimeYears <= 0 {
			t.Errorf("job %s: non-positive lifetime %v", r.ID, r.Projection.LifetimeYears)
		}
	}

	// Every job resolves individually by content address.
	for _, id := range sub.JobIDs {
		var job engine.JobResult
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d", id, code)
		}
		if job.ID != id || job.Run == nil {
			t.Fatalf("job %s: bad payload", id)
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	ts, _ := testServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
		{`{}`, http.StatusUnprocessableEntity}, // empty sweep
		{`{"benches":["no-such-bench"]}`, http.StatusUnprocessableEntity},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
		if apiErr.Error == "" {
			t.Errorf("body %q: no error message", tc.body)
		}
	}
}

func TestNotFound(t *testing.T) {
	ts, _ := testServer(t)
	if code := getJSON(t, ts.URL+"/v1/sweeps/sweep-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-ffffffffffffffff", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	// No job can finish before the DELETE has returned, so the cancel
	// always lands mid-sweep: unheld, the 72 small jobs can all finish
	// first, and a finished sweep rightly stays "done".
	hold := make(chan struct{})
	ts, _ := heldServer(t, hold)
	held := true
	release := func() {
		if held {
			held = false
			close(hold)
		}
	}
	t.Cleanup(release) // runs before the engine's Close, even on failure
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"banks":[2,4,8,16]}`)) // 72 jobs on 2 workers
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	release()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		var sweep SweepResponse
		getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
		if sweep.Status.State != "running" {
			if sweep.Status.State != "canceled" {
				t.Fatalf("state %q, want canceled", sweep.Status.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never settled after cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelFinishedSweepOverHTTP: DELETE on a sweep that has already
// finished cancels nothing and answers its unchanged "done" status.
func TestCancelFinishedSweepOverHTTP(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"benches":["sha"],"banks":[4]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(time.Minute)
	for {
		var sweep SweepResponse
		getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
		if sweep.Status.State == "done" {
			break
		}
		if sweep.Status.State != "running" || time.Now().After(deadline) {
			t.Fatalf("sweep did not finish: %+v", sweep.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var st engine.SweepStatus
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK || st.State != "done" || st.Completed != 1 {
		t.Fatalf("DELETE on a finished sweep: status %d, %+v; want 200 and done", dresp.StatusCode, st)
	}
	var sweep SweepResponse
	getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
	if sweep.Status.State != "done" {
		t.Errorf("state after DELETE = %q, want done", sweep.Status.State)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	ts, _ := testServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}

	// Run one tiny sweep so the counters move.
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"benches":["sha"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(time.Minute)
	for {
		var sweep SweepResponse
		getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
		if sweep.Status.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warm-up sweep never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"nbtiserved_sweeps_total 1",
		"nbtiserved_jobs_completed_total 1",
		"nbtiserved_cache_misses_total 1",
		"# HELP nbtiserved_workers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	var st engine.Stats
	if code := getJSON(t, ts.URL+"/metrics?format=json", &st); code != http.StatusOK {
		t.Fatalf("metrics json status %d", code)
	}
	if st.JobsCompleted != 1 {
		t.Errorf("json stats: %+v", st)
	}
}

// uploadTestTrace builds a deterministic "real" trace for upload tests.
func uploadTestTrace(name string, n int, seed int64) *trace.Trace {
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

func postBody(t *testing.T, url, ctype string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestTraceUploadBinaryAndText uploads the same trace in all three wire
// forms and checks content addressing converges: one ID, one stored
// trace, measured signature included every time.
func TestTraceUploadBinaryAndText(t *testing.T) {
	ts, eng := testServer(t)
	tr := uploadTestTrace("camera-app", 3000, 41)

	var v1, v2, txt bytes.Buffer
	if err := trace.WriteBinary(&v1, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeStream(&v2, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}

	var first UploadResponse
	if code := postBody(t, ts.URL+"/v1/traces", "application/octet-stream", v1.Bytes(), &first); code != http.StatusCreated {
		t.Fatalf("binary v1 upload status %d, want 201", code)
	}
	if !first.Created || first.ID == "" || first.Name != "camera-app" {
		t.Fatalf("bad upload response: %+v", first)
	}
	if first.Accesses != tr.Len() || first.Cycles != tr.Span {
		t.Errorf("shape wrong: %+v", first)
	}
	if first.Signature == nil || first.Signature.Banks != 4 {
		t.Errorf("no measured signature: %+v", first.Signature)
	}

	// Same trace as a v2 stream (sniffed) and as text: same address,
	// reported as already resident.
	var again UploadResponse
	if code := postBody(t, ts.URL+"/v1/traces", "", v2.Bytes(), &again); code != http.StatusOK {
		t.Fatalf("v2 re-upload status %d, want 200", code)
	}
	if again.Created || again.ID != first.ID {
		t.Fatalf("v2 upload not deduplicated: %+v", again)
	}
	if code := postBody(t, ts.URL+"/v1/traces", "text/plain", txt.Bytes(), &again); code != http.StatusOK {
		t.Fatalf("text re-upload status %d, want 200", code)
	}
	if again.Created || again.ID != first.ID {
		t.Fatalf("text upload not deduplicated: %+v", again)
	}
	if st := eng.Stats(); st.TracesStored != 1 || st.TracesUploaded != 1 {
		t.Errorf("store counts wrong: %+v", st)
	}

	// Metadata resolves by ID and in the listing.
	var info engine.TraceInfo
	if code := getJSON(t, ts.URL+"/v1/traces/"+first.ID, &info); code != http.StatusOK {
		t.Fatalf("GET trace status %d", code)
	}
	if info.ID != first.ID || info.Signature == nil {
		t.Errorf("metadata wrong: %+v", info)
	}
	var list struct {
		Total  int                `json:"total"`
		Traces []engine.TraceInfo `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &list); code != http.StatusOK || list.Total != 1 {
		t.Errorf("list: %d %+v", code, list)
	}
	if code := getJSON(t, ts.URL+"/v1/traces/trace-ffffffffffffffff", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace status %d, want 404", code)
	}
}

// TestTraceUploadErrors covers the rejection paths: bad magic, garbage
// text, an empty body, and an oversized body against a small limit.
func TestTraceUploadErrors(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(NewServer(eng, Config{MaxTraceBytes: 4096}).Handler())
	t.Cleanup(ts.Close)

	var apiErr APIError
	// Bad magic under a binary Content-Type.
	if code := postBody(t, ts.URL+"/v1/traces", "application/octet-stream", []byte("XXXX garbage"), &apiErr); code != http.StatusBadRequest {
		t.Errorf("bad magic status %d, want 400", code)
	}
	// Bad version byte behind a valid magic.
	if code := postBody(t, ts.URL+"/v1/traces", "", []byte("NBTR\x07rest"), &apiErr); code != http.StatusBadRequest {
		t.Errorf("bad version status %d, want 400", code)
	}
	// Garbage text.
	if code := postBody(t, ts.URL+"/v1/traces", "", []byte("0 R 0x40\nnot a record\n"), &apiErr); code != http.StatusBadRequest {
		t.Errorf("garbage text status %d, want 400", code)
	}
	// Empty body decodes to an access-free trace: rejected at admission.
	if code := postBody(t, ts.URL+"/v1/traces", "", nil, &apiErr); code != http.StatusUnprocessableEntity {
		t.Errorf("empty body status %d, want 422", code)
	}
	// Two concatenated traces in one body: trailing data, not a silent
	// half-stored upload.
	var cat bytes.Buffer
	if err := trace.WriteBinary(&cat, uploadTestTrace("a", 50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&cat, uploadTestTrace("b", 50, 2)); err != nil {
		t.Fatal(err)
	}
	if code := postBody(t, ts.URL+"/v1/traces", "", cat.Bytes(), &apiErr); code != http.StatusBadRequest {
		t.Errorf("concatenated body status %d, want 400 (%+v)", code, apiErr)
	}
	// Oversized body, in both binary forms: v1 trips the declared-count
	// pre-check, v2 (no count) must still 413 via the MaxBytesReader
	// error surfacing through the decoder with its identity intact.
	big := uploadTestTrace("big", 5000, 3)
	var v1, v2 bytes.Buffer
	if err := trace.WriteBinary(&v1, big); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeStream(&v2, big); err != nil {
		t.Fatal(err)
	}
	if v1.Len() <= 4096 || v2.Len() <= 4096 {
		t.Fatalf("test trace too small to trip the limit: %d/%d bytes", v1.Len(), v2.Len())
	}
	if code := postBody(t, ts.URL+"/v1/traces", "application/octet-stream", v1.Bytes(), &apiErr); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized v1 status %d, want 413", code)
	}
	if code := postBody(t, ts.URL+"/v1/traces", "application/octet-stream", v2.Bytes(), &apiErr); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized v2 status %d, want 413", code)
	}
	if apiErr.Error == "" {
		t.Error("no error message on rejection")
	}
}

// TestUploadConcurrencyGate: with every upload slot occupied, a new
// upload is turned away with 503 rather than admitted to decode.
func TestUploadConcurrencyGate(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := NewServer(eng, Config{MaxConcurrentUploads: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	srv.uploadSlots <- struct{}{} // occupy the only slot
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, uploadTestTrace("gated", 100, 1)); err != nil {
		t.Fatal(err)
	}
	var apiErr APIError
	if code := postBody(t, ts.URL+"/v1/traces", "", buf.Bytes(), &apiErr); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated upload status %d, want 503 (%+v)", code, apiErr)
	}
	<-srv.uploadSlots // free it
	var up UploadResponse
	if code := postBody(t, ts.URL+"/v1/traces", "", buf.Bytes(), &up); code != http.StatusCreated {
		t.Fatalf("upload after slot freed status %d, want 201", code)
	}
}

// TestTraceStoreBoundOverHTTP: a full store 507s uploads until a slot
// is freed with DELETE.
func TestTraceStoreBoundOverHTTP(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1, MaxStoredTraces: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(NewServer(eng, Config{}).Handler())
	t.Cleanup(ts.Close)

	encode := func(seed int64) []byte {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, uploadTestTrace("bound", 500, seed)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var up UploadResponse
	if code := postBody(t, ts.URL+"/v1/traces", "", encode(1), &up); code != http.StatusCreated {
		t.Fatalf("first upload status %d", code)
	}
	var apiErr APIError
	if code := postBody(t, ts.URL+"/v1/traces", "", encode(2), &apiErr); code != http.StatusInsufficientStorage {
		t.Fatalf("over-bound upload status %d, want 507 (%+v)", code, apiErr)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/"+up.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+up.ID, nil); code != http.StatusNotFound {
		t.Errorf("deleted trace still resolves: %d", code)
	}
	if code := postBody(t, ts.URL+"/v1/traces", "", encode(2), &up); code != http.StatusCreated {
		t.Errorf("upload after delete status %d, want 201", code)
	}
}

// TestSweepWithUploadedTraceOverHTTP is the end-to-end acceptance path:
// upload a real trace, sweep over it by ID, and check the served result
// matches simulating the same trace in-process on a fresh engine.
func TestSweepWithUploadedTraceOverHTTP(t *testing.T) {
	ts, _ := testServer(t)
	tr := uploadTestTrace("e2e", 4000, 17)

	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var up UploadResponse
	if code := postBody(t, ts.URL+"/v1/traces", "application/octet-stream", buf.Bytes(), &up); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}

	spec := fmt.Sprintf(`{"name":"trace-sweep","trace_ids":[%q],"banks":[2,4]}`, up.ID)
	var sub SubmitResponse
	if code := postBody(t, ts.URL+"/v1/sweeps", "application/json", []byte(spec), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if sub.Total != 2 {
		t.Fatalf("sweep has %d jobs, want 2", sub.Total)
	}

	deadline := time.Now().Add(time.Minute)
	var sweep SweepResponse
	for {
		getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
		if sweep.Status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", sweep.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sweep.Status.State != "done" || sweep.Status.Failed != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", sweep.Status)
	}

	// Reference: same trace, same points, fresh in-process engine.
	ref, err := engine.New(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	refInfo, _, err := ref.AddTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if refInfo.ID != up.ID {
		t.Fatalf("content address diverges across engines: %q vs %q", refInfo.ID, up.ID)
	}
	for _, served := range sweep.Jobs {
		want, err := ref.RunJob(context.Background(), served.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if served.Run.Misses != want.Run.Misses || served.Run.Hits != want.Run.Hits {
			t.Errorf("job %s: served %d/%d hits/misses, in-process %d/%d",
				served.ID, served.Run.Hits, served.Run.Misses, want.Run.Hits, want.Run.Misses)
		}
		if math.Abs(served.Projection.LifetimeYears-want.Projection.LifetimeYears) > 1e-9 {
			t.Errorf("job %s: served lifetime %v, in-process %v",
				served.ID, served.Projection.LifetimeYears, want.Projection.LifetimeYears)
		}
	}

	// Sweeping an unknown trace ID is rejected at submission.
	var apiErr APIError
	if code := postBody(t, ts.URL+"/v1/sweeps", "application/json",
		[]byte(`{"trace_ids":["trace-ffffffffffffffff"]}`), &apiErr); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown trace sweep status %d, want 422", code)
	}
}

// TestSweepRetention: finished sweeps beyond the retention bound are
// evicted oldest-first, while their job results stay resolvable through
// the content-addressed cache.
func TestSweepRetention(t *testing.T) {
	eng, err := engine.New(engine.Options{
		Workers: 2,
		Gen: func(g cache.Geometry) workload.GenParams {
			return workload.GenParams{Geometry: g, Phases: 16, AccessesPerPhase: 64}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(NewServer(eng, Config{RetainSweeps: 2}).Handler())
	t.Cleanup(ts.Close)

	benches := []string{"sha", "gsme", "gsmd", "cjpeg"}
	var ids []string
	var jobIDs []string
	for _, b := range benches {
		var sub SubmitResponse
		body := fmt.Sprintf(`{"benches":[%q]}`, b)
		if code := postBody(t, ts.URL+"/v1/sweeps", "application/json", []byte(body), &sub); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", b, code)
		}
		ids = append(ids, sub.ID)
		jobIDs = append(jobIDs, sub.JobIDs...)
		// Wait until done so the next submission can evict it.
		deadline := time.Now().Add(time.Minute)
		for {
			var sweep SweepResponse
			getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
			if sweep.Status.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep %s stuck", sub.ID)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Retention 2, four finished sweeps: the two oldest are gone.
	for i, id := range ids {
		code := getJSON(t, ts.URL+"/v1/sweeps/"+id, nil)
		if i < 2 && code != http.StatusNotFound {
			t.Errorf("sweep %d (%s): status %d, want 404 after eviction", i, id, code)
		}
		if i >= 2 && code != http.StatusOK {
			t.Errorf("sweep %d (%s): status %d, want 200", i, id, code)
		}
	}
	// Every job of every sweep — evicted or not — still resolves.
	for _, id := range jobIDs {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("job %s: status %d after sweep eviction", id, code)
		}
	}

	// The metrics expose the eviction counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"nbtiserved_sweeps_retained 2", "nbtiserved_sweeps_evicted_total 2"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The JSON variant carries the same retention counters.
	var jm struct {
		SweepsRetained int    `json:"sweeps_retained"`
		SweepsEvicted  uint64 `json:"sweeps_evicted"`
	}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &jm); code != http.StatusOK {
		t.Fatalf("metrics json status %d", code)
	}
	if jm.SweepsRetained != 2 || jm.SweepsEvicted != 2 {
		t.Errorf("json metrics retention: %+v", jm)
	}
}
