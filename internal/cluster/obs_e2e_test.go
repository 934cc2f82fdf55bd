package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbticache/internal/cluster"
	"nbticache/internal/cluster/clustertest"
	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/obs"
)

// obsGetJSON fetches a URL and decodes the JSON body when out is
// non-nil, returning the status code.
func obsGetJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// obsLint scrapes base+"/metrics", runs the obs conformance linter over
// the exposition, and returns the raw text plus the histogram family
// names found in TYPE lines.
func obsLint(t *testing.T, base string) (string, []string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, lintErr := range obs.Lint(bytes.NewReader(body)) {
		t.Errorf("coordinator exposition lint: %v", lintErr)
	}
	var histograms []string
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" && fields[3] == "histogram" {
			histograms = append(histograms, fields[2])
		}
	}
	return string(body), histograms
}

// TestClusterSpanStitching is the distributed-tracing acceptance test:
// a sweep sharded over three real in-process nodes must come back from
// the coordinator's spans endpoint as ONE tree — coordinator root,
// per-shard dispatch spans, and under each dispatch the shard engine's
// sweep/job/phase spans, all correlated by the trace ID the dispatch
// requests propagated via traceparent. The coordinator's /metrics must
// also pass the exposition linter with the cluster histogram families
// and per-shard series populated by the same traffic.
func TestClusterSpanStitching(t *testing.T) {
	cl := clustertest.Start(t, 3, clustertest.Options{})
	coord := cl.Coordinator(t)
	srv := httptest.NewServer(cluster.NewServer(coord, cluster.ServerConfig{}).Handler())
	defer srv.Close()

	spec := engine.SweepSpec{
		Name:     "obs-e2e",
		Benches:  []string{"sha", "gsme", "cjpeg", "dijkstra"},
		Banks:    []int{2, 4},
		Policies: []string{"identity", "probing"},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub httpapi.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Stream the completion feed instead of polling on a fixed cadence;
	// the terminal frame carries the merged status.
	if st := streamUntilDone(t, srv.URL, sub.ID); st.State != "done" {
		t.Fatalf("sweep did not complete: %+v", st)
	}
	var sweep httpapi.SweepResponse
	obsGetJSON(t, srv.URL+"/v1/sweeps/"+sub.ID, &sweep)
	st := sweep.Status
	if st.State != "done" {
		t.Fatalf("sweep did not complete: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("merged sweep has %d failed jobs", st.Failed)
	}
	if st.TraceID == "" {
		t.Fatal("merged sweep status carries no trace ID")
	}
	// Every job's phase timing survived the HTTP hop and the merge: the
	// coordinator never ran a job itself, so JobsTimed == Total proves
	// the shards reported queue/run/persist timings for all of them.
	if st.Timing == nil || st.Timing.JobsTimed != sub.Total {
		t.Fatalf("merged timing %+v, want JobsTimed == %d", st.Timing, sub.Total)
	}
	if st.Timing.RunMs <= 0 {
		t.Errorf("merged run time %v ms, want > 0", st.Timing.RunMs)
	}

	var spansResp httpapi.SpansResponse
	if code := obsGetJSON(t, srv.URL+"/v1/sweeps/"+sub.ID+"/spans", &spansResp); code != http.StatusOK {
		t.Fatalf("GET spans: status %d", code)
	}
	if spansResp.TraceID != st.TraceID {
		t.Fatalf("spans trace %s, status trace %s", spansResp.TraceID, st.TraceID)
	}
	spans := spansResp.Spans
	writeSpanArtifact(t, spansResp)

	// One tree: every span under the propagated trace ID, IDs unique,
	// every parent link resolving, a single root.
	byID := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %s (%s) carries trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, st.TraceID)
		}
		if _, dup := byID[sp.SpanID]; dup {
			t.Fatalf("duplicate span ID %s in stitched tree", sp.SpanID)
		}
		byID[sp.SpanID] = sp
	}
	var roots []obs.Span
	dispatches := map[string]bool{}
	jobIDs := map[string]bool{}
	for _, sp := range spans {
		if sp.ParentID == "" {
			roots = append(roots, sp)
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			t.Fatalf("span %s (%s) has unresolved parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
		switch sp.Name {
		case "coordinator.dispatch":
			dispatches[sp.SpanID] = true
		case "engine.job":
			jobIDs[sp.Attrs["job_id"]] = true
		}
	}
	if len(roots) != 1 || roots[0].Name != "coordinator.sweep" {
		t.Fatalf("stitched tree roots %v, want exactly one coordinator.sweep", roots)
	}
	// Cross-node correlation: at least two shards contributed fragments
	// (16 jobs over a 3-shard ring never all land on one node), and each
	// shard's engine.sweep hangs off the dispatch that carried the
	// traceparent to it.
	if len(dispatches) < 2 {
		t.Fatalf("%d coordinator.dispatch spans, want >= 2 shards dispatched", len(dispatches))
	}
	engineSweeps := 0
	for _, sp := range spans {
		if sp.Name != "engine.sweep" {
			continue
		}
		engineSweeps++
		if !dispatches[sp.ParentID] {
			t.Errorf("engine.sweep %s parented to %s, want a coordinator.dispatch span", sp.SpanID, sp.ParentID)
		}
	}
	if engineSweeps != len(dispatches) {
		t.Errorf("%d engine.sweep spans for %d dispatches", engineSweeps, len(dispatches))
	}
	// Coverage: an engine.job span for every submitted job ID, each with
	// its queue and persist phase children.
	for _, id := range sub.JobIDs {
		if !jobIDs[id] {
			t.Errorf("no engine.job span for job %s", id)
		}
	}
	phaseChildren := map[string]map[string]bool{} // parent span -> phase names seen
	for _, sp := range spans {
		parent, ok := byID[sp.ParentID]
		if !ok || parent.Name != "engine.job" {
			continue
		}
		if phaseChildren[sp.ParentID] == nil {
			phaseChildren[sp.ParentID] = map[string]bool{}
		}
		phaseChildren[sp.ParentID][sp.Name] = true
	}
	for _, sp := range spans {
		if sp.Name != "engine.job" {
			continue
		}
		for _, phase := range []string{"engine.queue", "engine.persist"} {
			if !phaseChildren[sp.SpanID][phase] {
				t.Errorf("job span %s (job %s) has no %s child", sp.SpanID, sp.Attrs["job_id"], phase)
			}
		}
	}

	// Coordinator /metrics: lint-clean exposition with the cluster
	// histogram families and the per-shard series the traffic populated.
	// The middleware records a request's duration sample after its
	// handler returns, which can be after the client has decoded the
	// whole body, so wait (bounded) for the spans request's sample first.
	spansRoute := `route="GET /v1/sweeps/{id}/spans"`
	waitFor(t, 10*time.Second, func() bool {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return err == nil && bytes.Contains(b, []byte(spansRoute))
	}, "no request-duration samples for the spans route")
	text, histograms := obsLint(t, srv.URL)
	if len(histograms) < 3 {
		t.Fatalf("coordinator /metrics exposes %d histogram families (%v), want >= 3", len(histograms), histograms)
	}
	for _, want := range []string{
		"nbtiserved_http_request_seconds",
		"nbtiserved_cluster_dispatch_seconds",
		"nbtiserved_cluster_shard_request_seconds",
	} {
		found := false
		for _, h := range histograms {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Errorf("histogram family %s missing (have %v)", want, histograms)
		}
	}
	for _, n := range cl.Nodes {
		if !strings.Contains(text, `peer="`+n.URL+`"`) {
			t.Errorf("no per-shard series for %s", n.URL)
		}
	}
	for _, series := range []string{
		"nbtiserved_cluster_sweeps_total ", "nbtiserved_cluster_jobs_merged_total ",
		"nbtiserved_cluster_sweeps_retained ",
	} {
		if !strings.Contains(text, "\n"+series) {
			t.Errorf("series %q missing from coordinator /metrics", strings.TrimSpace(series))
		}
	}
	if !strings.Contains(text, spansRoute) {
		t.Error("no request-duration samples for the spans route")
	}
	// Re-scrape: collect hooks are idempotent, nothing duplicates.
	obsLint(t, srv.URL)
}

// writeSpanArtifact dumps the stitched tree as JSON when
// SPAN_ARTIFACT_DIR is set (CI uploads it as a build artifact).
func writeSpanArtifact(t *testing.T, spansResp httpapi.SpansResponse) {
	t.Helper()
	dir := os.Getenv("SPAN_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	data, err := json.MarshalIndent(spansResp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("span artifact dir: %v", err)
	}
	path := filepath.Join(dir, "cluster_sweep_spans.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing span artifact: %v", err)
	}
	t.Logf("stitched span tree written to %s (%d spans)", path, len(spansResp.Spans))
}
