package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nbticache/internal/cluster"
	"nbticache/internal/cluster/clustertest"
	"nbticache/internal/engine"
	"nbticache/internal/trace"
)

// canonicalResult is the byte form the determinism tests compare: the
// full JSON result with the transport-dependent fields cleared: the
// Cached flag (a re-run is a cache hit) and the wall-clock Timing
// diagnostic. The scientific payload must still be identical.
func canonicalResult(t *testing.T, r *engine.JobResult) []byte {
	t.Helper()
	cp := *r
	cp.Cached = false
	cp.Timing = nil
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func resultsByID(t *testing.T, res *engine.SweepResult) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(res.Jobs))
	for _, r := range res.Jobs {
		if r == nil {
			t.Fatal("nil job slot in finished sweep")
		}
		if r.Err != "" {
			t.Fatalf("job %s failed: %s", r.ID, r.Err)
		}
		out[r.ID] = canonicalResult(t, r)
	}
	return out
}

// TestClusterDeterminism: the same SweepSpec run on one node and
// sharded across three harness nodes resolves every job content ID to
// byte-identical results — the merge path adds nothing and loses
// nothing.
func TestClusterDeterminism(t *testing.T) {
	spec := engine.SweepSpec{
		Name:     "determinism",
		Benches:  []string{"sha", "gsme", "cjpeg", "dijkstra"},
		Banks:    []int{2, 4},
		Policies: []string{"identity", "probing"},
	}
	ctx := context.Background()

	single := clustertest.Start(t, 1, clustertest.Options{})
	singleRes, err := single.Coordinator(t).Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	sharded := clustertest.Start(t, 3, clustertest.Options{})
	shardedRes, err := sharded.Coordinator(t).Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	want := resultsByID(t, singleRes)
	got := resultsByID(t, shardedRes)
	if len(want) != 16 || len(got) != len(want) {
		t.Fatalf("job counts diverge: single %d, sharded %d", len(want), len(got))
	}
	diverged := 0
	for id, wb := range want {
		gb, ok := got[id]
		if !ok {
			t.Errorf("job %s missing from the sharded run", id)
			continue
		}
		if !bytes.Equal(wb, gb) {
			diverged++
			t.Errorf("job %s diverges across the merge path:\nsingle:  %s\nsharded: %s", id, wb, gb)
		}
	}
	if diverged != 0 {
		t.Fatalf("%d of %d jobs diverged; want zero divergence", diverged, len(want))
	}
}

// TestClusterFailureInjection kills one harness node mid-sweep and
// asserts the coordinator re-routes exactly that node's jobs to the
// surviving ring owners, the merged sweep completes with every job
// resolved, and the retry counters match the rerouted job count.
func TestClusterFailureInjection(t *testing.T) {
	cl := clustertest.Start(t, 3, clustertest.Options{
		GenDelay:     50 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
	})
	c := cl.Coordinator(t)

	spec := engine.SweepSpec{Name: "failure-injection", Banks: []int{4}} // all 18 benchmarks at M=4
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := len(jobs)
	if total < 18 {
		t.Fatalf("sweep expanded to %d jobs, want >= 18", total)
	}

	// Ownership is fixed before any failure; the node owning the most
	// jobs is the victim (pigeonhole: it owns >= total/3).
	owned := make(map[string]int)
	for _, j := range jobs {
		owner, ok := c.OwnerOf(j.ID())
		if !ok {
			t.Fatal("no owner with a full ring")
		}
		owned[owner]++
	}
	var doomedURL string
	for url, n := range owned {
		if n > owned[doomedURL] {
			doomedURL = url
		}
	}
	doomed := cl.ByURL(doomedURL)
	if doomed == nil {
		t.Fatalf("owner %s is not a harness node", doomedURL)
	}
	// None of the victim's jobs can finish before the kill, however
	// loaded the host: its generations stall until it dies.
	doomed.HoldGeneration()
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim once the coordinator has counted its sub-sweep as
	// accepted (routed) — mid-sweep by construction. The victim's own
	// submit counter is too early: a kill between the shard admitting
	// the sub-sweep and the coordinator reading the answer fails the
	// submit instead, and the jobs then re-route as first dispatches.
	routed := func() uint64 {
		for _, sh := range c.Stats().Shards {
			if sh.Peer == doomedURL {
				return sh.Routed
			}
		}
		return 0
	}
	deadline := time.Now().Add(30 * time.Second)
	for routed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim node never accepted its sub-sweep")
		}
		time.Sleep(time.Millisecond)
	}
	doomed.Kill()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("merged sweep did not complete cleanly: %+v", res.Status)
	}
	for _, r := range res.Jobs {
		if r == nil || r.Run == nil || r.Projection == nil {
			t.Fatalf("unresolved job after re-route: %+v", r)
		}
	}

	st := c.Stats()
	rerouted := uint64(owned[doomedURL])
	if st.JobsRetried != rerouted {
		t.Errorf("retried %d jobs, want exactly the victim's %d", st.JobsRetried, rerouted)
	}
	if st.JobsRouted != uint64(total)+st.JobsRetried {
		t.Errorf("routed %d, want %d original + %d retries", st.JobsRouted, total, st.JobsRetried)
	}
	if st.JobsMerged != uint64(total) {
		t.Errorf("merged %d results, want %d", st.JobsMerged, total)
	}
	if st.PeerFailures != 1 || st.AlivePeers != 2 {
		t.Errorf("peer bookkeeping wrong: %+v", st)
	}
	var shardRetried, shardRouted uint64
	for _, sh := range st.Shards {
		shardRetried += sh.Retried
		shardRouted += sh.Routed
		if sh.Peer == doomedURL {
			if sh.Alive {
				t.Errorf("victim still marked alive")
			}
			if sh.Merged != 0 {
				t.Errorf("victim merged %d results after dying mid-sweep", sh.Merged)
			}
		}
	}
	if shardRetried != st.JobsRetried || shardRouted != st.JobsRouted {
		t.Errorf("per-shard counters (%d routed, %d retried) disagree with totals (%d, %d)",
			shardRouted, shardRetried, st.JobsRouted, st.JobsRetried)
	}
}

// buildTrace makes a deterministic "real" trace for routing tests.
func buildTrace(name string, n int, seed int64) *trace.Trace {
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

// TestClusterTraceRouting: a sweep referencing a trace uploaded to one
// node completes even though most of its jobs are owned by other
// shards — the coordinator forwards the canonical bytes on demand and
// the content ID survives end to end.
func TestClusterTraceRouting(t *testing.T) {
	cl := clustertest.Start(t, 3, clustertest.Options{})
	c := cl.Coordinator(t)

	// The trace lives only on node 0; the coordinator holds nothing.
	tr := buildTrace("camera-pipeline", 3000, 97)
	home := cl.Nodes[0]
	info, _, err := home.Engine.AddTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	spec := engine.SweepSpec{
		Name:     "trace-routing",
		TraceIDs: []string{info.ID},
		Banks:    []int{2, 4, 8, 16},
		Policies: []string{"identity", "probing", "scrambling"},
		Modes:    []string{"voltage-scaled", "power-gated", "recovery-boosted"},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	foreign := 0
	for _, j := range jobs {
		if owner, _ := c.OwnerOf(j.ID()); owner != home.URL {
			foreign++
		}
	}
	if foreign == 0 {
		// 36 content addresses all hashing to one of three nodes has
		// probability 3^-35; a hit means the ring is broken, not luck.
		t.Fatal("every job owned by the trace's home node; ring distribution is broken")
	}

	res, err := c.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", res.Status)
	}
	for _, r := range res.Jobs {
		if r.Spec.TraceID != info.ID {
			t.Fatalf("job %s lost the trace reference: %+v", r.ID, r.Spec)
		}
		if r.Run == nil || r.Projection == nil {
			t.Fatalf("job %s unresolved: %+v", r.ID, r)
		}
	}

	st := c.Stats()
	if st.TracesForwarded < 1 || st.TracesForwarded > 2 {
		t.Errorf("forwarded %d copies, want 1..2 (once per foreign shard)", st.TracesForwarded)
	}
	// Every shard that owned a job now holds the trace under the same
	// content address, signature measured at its own admission.
	holders := 0
	for _, n := range cl.Nodes {
		if got, ok := n.Engine.TraceInfo(info.ID); ok {
			holders++
			if got.ID != info.ID || got.Accesses != info.Accesses {
				t.Errorf("%s holds a diverged copy: %+v vs %+v", n.Name, got, info)
			}
		}
	}
	if want := 1 + int(st.TracesForwarded); holders != want {
		t.Errorf("%d nodes hold the trace, want %d (home + forwards)", holders, want)
	}

	// A sweep referencing a trace no node holds is rejected at submit,
	// like a single node would.
	if _, err := c.Submit(context.Background(), engine.SweepSpec{
		TraceIDs: []string{"trace-ffffffffffffffffffffffffffffffff"},
	}); err == nil || !strings.Contains(err.Error(), "unknown trace") {
		t.Errorf("unknown trace accepted: %v", err)
	}
}

// TestCoordinatorHTTP drives the coordinator-mode surface end to end on
// the harness: upload a trace through the coordinator (routed to its
// owning shard), submit a sharded sweep over the same /v1/sweeps route
// a node serves, poll the merged view, resolve a job by content address
// through the proxy, and read the per-shard metrics.
func TestCoordinatorHTTP(t *testing.T) {
	cl := clustertest.Start(t, 2, clustertest.Options{})
	c := cl.Coordinator(t)
	ts := httptest.NewServer(cluster.NewServer(c, cluster.ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	// Upload through the coordinator: the canonical bytes land on the
	// content address's owning shard.
	var wire bytes.Buffer
	if err := trace.WriteBinary(&wire, buildTrace("edge-upload", 2000, 11)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		engine.TraceInfo
		Created bool `json:"created"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !up.Created || up.ID == "" {
		t.Fatalf("coordinator upload: %d %+v", resp.StatusCode, up)
	}
	owner, _ := c.OwnerOf(up.ID)
	if _, ok := cl.ByURL(owner).Engine.TraceInfo(up.ID); !ok {
		t.Fatalf("trace not resident on its owning shard %s", owner)
	}
	// The merged listing and the metadata proxy both resolve it.
	var list struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &list); code != http.StatusOK || list.Total != 1 {
		t.Fatalf("merged listing: %d %+v", code, list)
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+up.ID, nil); code != http.StatusOK {
		t.Fatalf("trace metadata proxy status %d", code)
	}

	// A sweep mixing a benchmark axis and the uploaded trace.
	body := fmt.Sprintf(`{"name":"via-coordinator","benches":["sha","gsme"],"trace_ids":[%q],"banks":[2,4]}`, up.ID)
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID     string   `json:"id"`
		Total  int      `json:"total"`
		JobIDs []string `json:"job_ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Total != 6 {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}

	// Stream the completion feed instead of polling on a fixed cadence:
	// the events route pushes each merge and terminates with the final
	// status, so the test wakes exactly when the sweep does.
	if st := streamUntilDone(t, ts.URL, sub.ID); st.State != "done" || st.Failed != 0 {
		t.Fatalf("merged sweep: %+v", st)
	}
	var sweep struct {
		Status engine.SweepStatus  `json:"status"`
		Jobs   []*engine.JobResult `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep); code != http.StatusOK {
		t.Fatalf("final status %d", code)
	}
	if sweep.Status.State != "done" || sweep.Status.Failed != 0 {
		t.Fatalf("merged sweep: %+v", sweep.Status)
	}

	// Jobs resolve through the proxy from whichever shard ran them.
	for _, id := range sub.JobIDs {
		var job engine.JobResult
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("job proxy %s: status %d", id, code)
		}
		if job.ID != id || job.Run == nil {
			t.Fatalf("job proxy %s: bad payload", id)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-ffffffffffffffff", nil); code != http.StatusNotFound {
		t.Errorf("unknown job proxy status %d, want 404", code)
	}

	// Metrics: totals plus the per-shard routed/retried/merged series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	text := mbuf.String()
	for _, want := range []string{
		"nbtiserved_cluster_peers 2",
		"nbtiserved_cluster_sweeps_total 1",
		"nbtiserved_cluster_jobs_merged_total 6",
		"nbtiserved_cluster_jobs_retried_total 0",
		fmt.Sprintf("nbtiserved_cluster_shard_jobs_routed_total{peer=%q}", cl.Nodes[0].URL),
		fmt.Sprintf("nbtiserved_cluster_shard_jobs_merged_total{peer=%q}", cl.Nodes[1].URL),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	var jm cluster.Stats
	if code := getJSON(t, ts.URL+"/metrics?format=json", &jm); code != http.StatusOK || jm.JobsMerged != 6 {
		t.Errorf("json metrics: %d %+v", code, jm)
	}

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["mode"] != "coordinator" {
		t.Errorf("healthz: %d %+v", code, health)
	}
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
