package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nbticache/internal/cluster"
	"nbticache/internal/cluster/clustertest"
	"nbticache/internal/engine"
)

// elasticSpec is the fault-injection workload: all 18 paper benchmarks
// at M=4 under the single default sleep mode, so every job has a
// distinct simulation (no cross-job run sharing) and per-engine
// RunsExecuted counters map one-to-one onto jobs simulated.
func elasticSpec(name string) engine.SweepSpec {
	return engine.SweepSpec{Name: name, Banks: []int{4}}
}

// referenceResults runs spec on a fresh 1-node cluster and returns the
// canonical byte form per job ID — the determinism oracle the
// fault-injection scenarios compare against.
func referenceResults(t *testing.T, spec engine.SweepSpec) map[string][]byte {
	t.Helper()
	single := clustertest.Start(t, 1, clustertest.Options{})
	res, err := single.Coordinator(t).Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return resultsByID(t, res)
}

func assertByteIdentical(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("job counts diverge: want %d, got %d", len(want), len(got))
	}
	for id, wb := range want {
		gb, ok := got[id]
		if !ok {
			t.Errorf("job %s missing", id)
			continue
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("job %s diverges from the 1-shard reference:\nwant: %s\ngot:  %s", id, wb, gb)
		}
	}
}

// mergedSnapshot captures the jobs merged successfully so far, by job
// ID, in canonical byte form — the protected set a fault scenario
// asserts is never simulated again.
func mergedSnapshot(t *testing.T, h *cluster.Handle) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, r := range h.Results() {
		if r != nil && r.Err == "" && !r.Canceled {
			out[r.ID] = canonicalResult(t, r)
		}
	}
	return out
}

// assertNotResimulated checks, by job ID, that no job in merged was
// simulated again at or after since: no node recorded an
// engine.simulate span starting then under an engine.job span for one
// of those jobs in the sweep's trace. A restarted node's engine is read
// as it is now, so its post-restart work is covered.
func assertNotResimulated(t *testing.T, cl *clustertest.Cluster, traceID string, merged map[string][]byte, since time.Time) {
	t.Helper()
	if traceID == "" {
		t.Fatal("sweep has no trace ID: simulations cannot be attributed to jobs")
	}
	for _, n := range cl.Nodes {
		spans := n.Engine.Telemetry().Tracer.Spans(traceID)
		jobOf := make(map[string]string) // engine.job span ID -> job ID
		for _, sp := range spans {
			if sp.Name == "engine.job" {
				jobOf[sp.SpanID] = sp.Attrs["job_id"]
			}
		}
		for _, sp := range spans {
			if sp.Name != "engine.simulate" || sp.Start.Before(since) {
				continue
			}
			if id := jobOf[sp.ParentID]; merged[id] != nil {
				t.Errorf("%s simulated job %s again at %s, after it merged", n.Name, id, sp.Start.Format(time.RFC3339Nano))
			}
		}
	}
}

// TestNodeKillRejoinMidSweep is the elastic-membership acceptance
// scenario: a node is killed mid-sweep and restarted on the same
// address with the same data directory; the health loop re-admits it,
// the sweep completes byte-identical to the 1-shard reference, and no
// job merged before the kill is ever simulated again, checked by job
// ID.
func TestNodeKillRejoinMidSweep(t *testing.T) {
	spec := elasticSpec("kill-rejoin")
	want := referenceResults(t, spec)

	cl := clustertest.Start(t, 3, clustertest.Options{
		GenDelay:       50 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
	})
	c := cl.Coordinator(t)
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(h.Jobs())

	// The victim is the node owning the most jobs (pigeonhole: >= total/3).
	owned := make(map[string]int)
	for _, j := range h.Jobs() {
		owner, _ := c.OwnerOf(j.ID())
		owned[owner]++
	}
	var victimURL string
	for url, n := range owned {
		if n > owned[victimURL] {
			victimURL = url
		}
	}
	victim := cl.ByURL(victimURL)

	// Kill once at least one result has merged but the sweep is still
	// running — mid-sweep by construction.
	deadline := time.Now().Add(time.Minute)
	for {
		st := h.Status()
		if st.Completed >= 1 && st.State == "running" {
			break
		}
		if st.State != "running" || time.Now().After(deadline) {
			t.Fatalf("no mid-sweep kill window: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The protected set first, then the kill instant: every job in the
	// set merged — so finished simulating — before killAt, and must
	// never be simulated again by anyone.
	mergedBytes := mergedSnapshot(t, h)
	killAt := time.Now()
	victim.Kill()
	// Restart only once the coordinator has evicted the victim. A stream
	// reopen reaching the already-restarted victim would otherwise get a
	// 404 and re-dispatch the sub-sweep's slots to it, and the peer
	// would never leave the ring, let alone rejoin it.
	waitFor(t, 30*time.Second, func() bool { return c.Stats().AlivePeers == 2 },
		"victim never evicted from the ring")
	victim.Restart(t)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly across the kill+rejoin: %+v", res.Status)
	}
	got := resultsByID(t, res)
	assertByteIdentical(t, want, got)
	// Results merged before the kill survived it byte-for-byte.
	for id, wb := range mergedBytes {
		if !bytes.Equal(wb, got[id]) {
			t.Errorf("pre-kill result %s changed across the rejoin", id)
		}
	}

	// Zero re-simulation of already-merged jobs, by job ID: merged
	// slots never re-dispatch, and the restarted victim warm-starts
	// from its disk CAS.
	assertNotResimulated(t, cl, h.TraceID(), mergedBytes, killAt)

	// The health loop re-admitted the restarted victim.
	waitFor(t, 30*time.Second, func() bool {
		st := c.Stats()
		return st.AlivePeers == 3 && st.RingRejoins >= 1
	}, "victim never rejoined the ring")
	if st := c.Stats(); st.JobsMerged != uint64(total) {
		t.Errorf("merged %d results, want %d", st.JobsMerged, total)
	}
}

// TestRejoinServesFromCache pins rejoin on the one recovery path: a
// peer whose disk CAS already holds every result is evicted
// (partitioned behind 503s), the sweep routes to the survivor, the peer
// heals and rejoins, and the survivor dies with the whole sub-sweep
// still in flight. Re-dispatch sends every job to the rejoined peer,
// whose result cache answers it — proven by its RunsExecuted standing
// still.
func TestRejoinServesFromCache(t *testing.T) {
	spec := elasticSpec("rejoin-cache")
	cl := clustertest.Start(t, 2, clustertest.Options{HealthInterval: 40 * time.Millisecond})
	survivor, warm := cl.Nodes[0], cl.Nodes[1]

	// Pre-warm the node's cache in-process with every job of the sweep.
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := len(jobs)
	wantBytes := make(map[string][]byte, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, j := range jobs {
		wg.Add(1)
		go func(j engine.JobSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := warm.Engine.RunJob(context.Background(), j)
			if err != nil {
				t.Errorf("pre-warm %s: %v", j.ID(), err)
				return
			}
			mu.Lock()
			wantBytes[r.ID] = canonicalResult(t, r)
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	warmRuns := warm.Engine.Stats().RunsExecuted

	// Partition the warm node (reachable, answers 503 to everything)
	// and let the health loop evict it before the sweep submits.
	warm.Partition(true)
	c := cl.Coordinator(t)
	waitFor(t, 30*time.Second, func() bool { return c.Stats().AlivePeers == 1 },
		"partitioned peer never evicted")

	// Every job routes to the survivor, whose generations stall until it
	// dies: none of them can merge from there.
	survivor.HoldGeneration()
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, func() bool { return c.Stats().JobsRouted == uint64(total) },
		"survivor never accepted the sweep")

	warm.Partition(false)
	waitFor(t, 30*time.Second, func() bool {
		st := c.Stats()
		return st.AlivePeers == 2 && st.RingRejoins >= 1
	}, "healed peer never rejoined the ring")
	survivor.Kill()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", res.Status)
	}
	assertByteIdentical(t, wantBytes, resultsByID(t, res))

	// The rejoined node served only from its cache: not one simulation.
	if got := warm.Engine.Stats().RunsExecuted; got != warmRuns {
		t.Errorf("rejoined node ran %d new simulations, want 0 (all %d results were already in its CAS)",
			got-warmRuns, total)
	}
	st := c.Stats()
	if st.JobsRetried != uint64(total) {
		t.Errorf("retried %d jobs, want all %d re-dispatched to the rejoined peer", st.JobsRetried, total)
	}
	if st.JobsMerged != uint64(total) {
		t.Errorf("merged %d, want %d", st.JobsMerged, total)
	}
}

// TestCoordinatorRestartMidSweep is the coordinator-HA acceptance
// scenario: the coordinator is closed mid-sweep and a new one over the
// same state directory resumes the sweep from its persisted checkpoint.
// The resumed sweep re-dispatches every job once and is byte-identical
// to the 1-shard reference; the shard caches answer the jobs merged
// before the restart, so none of them is simulated again and the shard
// engines run no more new simulations than the unmerged remainder.
func TestCoordinatorRestartMidSweep(t *testing.T) {
	spec := elasticSpec("coordinator-restart")
	want := referenceResults(t, spec)

	cl := clustertest.Start(t, 3, clustertest.Options{GenDelay: 50 * time.Millisecond})
	stateDir := t.TempDir()

	c1 := cl.CoordinatorAt(t, stateDir)
	h1, err := c1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(h1.Jobs())

	// Close mid-sweep, once some results merged.
	deadline := time.Now().Add(time.Minute)
	for {
		st := h1.Status()
		if st.Completed >= 2 && st.State == "running" {
			break
		}
		if st.State != "running" || time.Now().After(deadline) {
			t.Fatalf("no mid-sweep restart window: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c1.Close()
	closeAt := time.Now()
	// Close settles the handle: whatever merged successfully is the set
	// the next coordinator must not simulate again.
	st1 := h1.Status()
	if st1.State != "canceled" || st1.Completed < 2 || st1.Completed >= total {
		t.Fatalf("shutdown settle: %+v (want a partially merged sweep)", st1)
	}
	mergedAtClose := st1.Completed
	merged := mergedSnapshot(t, h1)
	runsAtClose := uint64(0)
	for _, n := range cl.Nodes {
		runsAtClose += n.Engine.Stats().RunsExecuted
	}

	c2 := cl.CoordinatorAt(t, stateDir)
	resumed, err := c2.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID != h1.ID {
		t.Fatalf("resumed %d sweeps (%v), want exactly %q", len(resumed), resumed, h1.ID)
	}
	h2 := resumed[0]

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("resumed sweep did not complete cleanly: %+v", res.Status)
	}
	assertByteIdentical(t, want, resultsByID(t, res))

	st := c2.Stats()
	if st.SweepsResumed != 1 {
		t.Errorf("sweeps resumed = %d, want 1", st.SweepsResumed)
	}
	if distinct := st.JobsRouted - st.JobsRetried; distinct != uint64(total) {
		t.Errorf("distinct jobs dispatched after restart = %d, want all %d", distinct, total)
	}
	if st.JobsMerged != uint64(total) {
		t.Errorf("merged %d, want %d", st.JobsMerged, total)
	}
	// Zero re-simulation of already-merged jobs, at the engines: new
	// simulations across the cluster are bounded by the unmerged
	// remainder (shard engines were never restarted, so their
	// content-addressed caches answer everything already run).
	runsAfter := uint64(0)
	for _, n := range cl.Nodes {
		runsAfter += n.Engine.Stats().RunsExecuted
	}
	if maxNew := uint64(total - mergedAtClose); runsAfter-runsAtClose > maxNew {
		t.Errorf("post-restart simulations = %d, want <= %d: an already-merged job was re-simulated",
			runsAfter-runsAtClose, maxNew)
	}
	assertNotResimulated(t, cl, h2.TraceID(), merged, closeAt)

	// The resumed sweep completed cleanly, so its checkpoint is gone: a
	// third coordinator finds nothing to resume.
	c2.Close()
	c3 := cl.CoordinatorAt(t, stateDir)
	if left, err := c3.Resume(context.Background()); err != nil || len(left) != 0 {
		t.Errorf("Resume after clean completion = %d sweeps, %v; want none", len(left), err)
	}
}

// TestRuntimeJoinAnnounce: a node started after the coordinator joins
// the ring through the announce endpoint and immediately takes its
// keyspace share of a sweep.
func TestRuntimeJoinAnnounce(t *testing.T) {
	cl := clustertest.Start(t, 1, clustertest.Options{})
	c := cl.Coordinator(t)
	ts := httptest.NewServer(cluster.NewServer(c, cluster.ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	late := cl.StartNode(t)
	if err := cluster.Announce(context.Background(), nil, ts.URL, late.URL); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Peers != 2 || st.AlivePeers != 2 || st.RingJoins != 1 {
		t.Fatalf("after announce: %+v, want 2 live peers and 1 ring join", st)
	}
	// Announcing again is idempotent: already a live member.
	if err := cluster.Announce(context.Background(), nil, ts.URL, late.URL); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RingJoins != 1 || st.AlivePeers != 2 {
		t.Fatalf("re-announce not idempotent: %+v", st)
	}

	res, err := c.Sweep(context.Background(), engine.SweepSpec{Name: "post-join", Banks: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("post-join sweep: %+v", res.Status)
	}
	for _, sh := range c.Stats().Shards {
		if sh.Routed == 0 {
			t.Errorf("shard %s routed no jobs; the joined node never took its keyspace share", sh.Peer)
		}
	}
}

// TestReplicatedOwnership: with OwnerReplicas=2 every merged result is
// written through to its second ring owner, so killing a job's primary
// owner loses nothing — the coordinator's job proxy serves it from the
// replica and counts the replica read.
func TestReplicatedOwnership(t *testing.T) {
	cl := clustertest.Start(t, 3, clustertest.Options{
		Replicas:       2,
		HealthInterval: -1, // membership frozen: the kill below must not re-shape the ring
	})
	c := cl.Coordinator(t)
	ts := httptest.NewServer(cluster.NewServer(c, cluster.ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	spec := elasticSpec("replicated")
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep: %+v", res.Status)
	}
	total := uint64(len(h.Jobs()))

	// Replication is async; every job gets exactly one write-through
	// (two owners, the dispatch owner already has it).
	waitFor(t, 30*time.Second, func() bool { return c.Stats().ReplicaWrites >= total },
		"replica write-throughs never completed")
	st := c.Stats()
	if st.ReplicaWrites != total || st.ReplicaWriteFailures != 0 {
		t.Fatalf("replica writes = %d (failures %d), want %d clean", st.ReplicaWrites, st.ReplicaWriteFailures, total)
	}
	// Every result is resident on both of its ring owners' engines.
	for _, j := range h.Jobs() {
		id := j.ID()
		holders := 0
		for _, n := range cl.Nodes {
			if _, ok := n.Engine.Job(id); ok {
				holders++
			}
		}
		if holders < 2 {
			t.Fatalf("job %s resident on %d nodes, want >= 2", id, holders)
		}
	}

	// Kill a job's primary owner: the read proxy falls through to the
	// replica (the dead primary is still in the frozen ring, so the
	// fallback is a genuine replica read).
	victimJob := h.Jobs()[0].ID()
	primary, _ := c.OwnerOf(victimJob)
	cl.ByURL(primary).Kill()
	var got engine.JobResult
	if code := getJSON(t, ts.URL+"/v1/jobs/"+victimJob, &got); code != http.StatusOK {
		t.Fatalf("job read after killing its primary owner: status %d", code)
	}
	if got.ID != victimJob || got.Run == nil || got.Projection == nil {
		t.Fatalf("replica served a bad result: %+v", got)
	}
	if st := c.Stats(); st.ReplicaReads < 1 {
		t.Errorf("replica reads = %d, want >= 1", st.ReplicaReads)
	}
}

// streamsResumed sums the shards' resumed-stream counters (streams
// opened with a nonzero cursor).
func streamsResumed(cl *clustertest.Cluster) uint64 {
	var n uint64
	for _, node := range cl.Nodes {
		n += node.Engine.Telemetry().Metrics.Counter("nbtiserved_sweep_events_resumed_total", "").Value()
	}
	return n
}

// TestStreamSeverResumesAtCursor is the dataplane fault scenario: every
// shard's established connections — event streams included — are
// severed mid-sweep until a shard serves a stream resumed from a
// cursor. The coordinator must reopen each severed stream where it left
// off and finish byte-identical to the 1-shard reference, with no peer
// failure, no re-dispatch, and no job merged before the sever
// simulated again — a sever costs a reconnect, not work.
func TestStreamSeverResumesAtCursor(t *testing.T) {
	spec := elasticSpec("stream-sever")
	want := referenceResults(t, spec)

	cl := clustertest.Start(t, 3, clustertest.Options{GenDelay: 50 * time.Millisecond})
	c := cl.Coordinator(t)
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for a live stream and at least one merged result, mid-sweep.
	waitFor(t, time.Minute, func() bool {
		st := c.Stats()
		return st.StreamsOpened >= 1 && st.JobsMerged >= 1 && h.Status().State == "running"
	}, "no mid-sweep sever window (stream open + >= 1 merge)")

	// Snapshot the protected set, then sever. The listeners stay up, so
	// health probes and reopens (fresh connections) keep passing: no
	// eviction, no re-route. Each sever gets time for the reopens to
	// land before the next, so a sever never hits a reopen in flight.
	merged := mergedSnapshot(t, h)
	severAt := time.Now()
	for streamsResumed(cl) == 0 && h.Status().State == "running" {
		for _, n := range cl.Nodes {
			n.SeverConnections()
		}
		deadline := time.Now().Add(200 * time.Millisecond)
		for streamsResumed(cl) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly across the sever: %+v", res.Status)
	}
	assertByteIdentical(t, want, resultsByID(t, res))

	if n := streamsResumed(cl); n < 1 {
		t.Fatalf("no shard served a resumed stream (resumed %d); the sever window closed with the sweep", n)
	}
	st := c.Stats()
	if st.PeerFailures != 0 || st.JobsRetried != 0 {
		t.Errorf("peer failures = %d, retried jobs = %d; a sever must cost neither", st.PeerFailures, st.JobsRetried)
	}
	if total := uint64(len(h.Jobs())); st.JobsMerged != total || st.EventsStreamed != total {
		t.Errorf("merged %d (%d streamed), want all %d off the streams", st.JobsMerged, st.EventsStreamed, total)
	}
	assertNotResimulated(t, cl, h.TraceID(), merged, severAt)
}

// TestEvictedSubSweepRedispatches is the evicted-sub-sweep fault
// scenario: each shard answers its first event-stream open with 404, as
// it does once retention has evicted a finished sub-sweep. The slots
// stay pending and the next round re-dispatches them to the same
// owners, whose engines answer from their result caches or join the
// runs still in flight: the sweep finishes byte-identical to the
// 1-shard reference with every job simulated exactly once and no peer
// blamed.
func TestEvictedSubSweepRedispatches(t *testing.T) {
	spec := elasticSpec("evicted-sub-sweep")
	want := referenceResults(t, spec)

	cl := clustertest.Start(t, 3, clustertest.Options{})
	for _, n := range cl.Nodes {
		n.ForgetStreams(1)
	}
	c := cl.Coordinator(t)
	res, err := c.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly across the evictions: %+v", res.Status)
	}
	assertByteIdentical(t, want, resultsByID(t, res))

	total := uint64(len(res.Jobs))
	var runs uint64
	for _, n := range cl.Nodes {
		runs += n.Engine.Stats().RunsExecuted
	}
	if runs != total {
		t.Errorf("shards ran %d simulations for %d jobs, want each job simulated exactly once", runs, total)
	}
	st := c.Stats()
	if st.PeerFailures != 0 {
		t.Errorf("peer failures = %d, want 0: an evicted sub-sweep is not a failed peer", st.PeerFailures)
	}
	if st.JobsRetried != total || st.JobsMerged != total {
		t.Errorf("retried %d, merged %d; want every one of %d jobs re-dispatched once and merged",
			st.JobsRetried, st.JobsMerged, total)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
