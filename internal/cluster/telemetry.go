package cluster

import (
	"strconv"

	"nbticache/internal/obs"
)

// coordMetrics holds the coordinator's live metric handles. With Nop
// telemetry every handle is nil and every call on it is a no-op.
type coordMetrics struct {
	// dispatch times one dispatch call end to end (trace residency
	// checks, sub-sweep submit, and following its completion stream).
	dispatch *obs.Histogram // nbtiserved_cluster_dispatch_seconds
}

// registerMetrics builds the coordinator's metric families on the
// telemetry registry and mirrors the Stats counters into it at every
// scrape, so the coordinator's /metrics keeps its historical series
// names (per-shard {peer="..."} series included) while gaining the
// histogram families. No-ops entirely on a Nop registry.
func (c *Coordinator) registerMetrics() {
	r := c.tel.Metrics
	c.met = coordMetrics{
		dispatch: r.Histogram("nbtiserved_cluster_dispatch_seconds",
			"Wall time of one dispatch of a job group to a shard (submit through final merge).", nil),
	}
	c.client.reqSeconds = r.HistogramVec("nbtiserved_cluster_shard_request_seconds",
		"Latency of one shard API request, by operation.", nil, "op")
	if r == nil {
		return
	}

	rows := []struct {
		name, typ, help string
		read            func(Stats) float64
	}{
		{"nbtiserved_cluster_peers", "gauge", "Configured shard peers.", func(s Stats) float64 { return float64(s.Peers) }},
		{"nbtiserved_cluster_peers_alive", "gauge", "Peers still in the ring.", func(s Stats) float64 { return float64(s.AlivePeers) }},
		{"nbtiserved_cluster_sweeps_total", "counter", "Sharded sweeps submitted.", func(s Stats) float64 { return float64(s.SweepsTotal) }},
		{"nbtiserved_cluster_jobs_routed_total", "counter", "Job dispatches to shards.", func(s Stats) float64 { return float64(s.JobsRouted) }},
		{"nbtiserved_cluster_jobs_retried_total", "counter", "Accepted dispatches that re-dispatched an already-routed job (re-route after a peer failure, or a retry after a transient refusal).", func(s Stats) float64 { return float64(s.JobsRetried) }},
		{"nbtiserved_cluster_jobs_merged_total", "counter", "Job results merged from shards.", func(s Stats) float64 { return float64(s.JobsMerged) }},
		{"nbtiserved_cluster_jobs_failed_total", "counter", "Jobs settled with a permanent routing error.", func(s Stats) float64 { return float64(s.JobsFailed) }},
		{"nbtiserved_cluster_traces_forwarded_total", "counter", "Uploaded traces copied to a job's owning shard.", func(s Stats) float64 { return float64(s.TracesForwarded) }},
		{"nbtiserved_cluster_peer_failures_total", "counter", "Peers removed from the ring after a failure.", func(s Stats) float64 { return float64(s.PeerFailures) }},
		{"nbtiserved_cluster_ring_joins_total", "counter", "New peers admitted to the ring at runtime.", func(s Stats) float64 { return float64(s.RingJoins) }},
		{"nbtiserved_cluster_ring_rejoins_total", "counter", "Evicted peers re-admitted to the ring (health-loop recovery or re-announce).", func(s Stats) float64 { return float64(s.RingRejoins) }},
		{"nbtiserved_cluster_replica_writes_total", "counter", "Job results written through to a replica owner.", func(s Stats) float64 { return float64(s.ReplicaWrites) }},
		{"nbtiserved_cluster_replica_write_failures_total", "counter", "Replica write-throughs that failed (best-effort; the authoritative copy already merged).", func(s Stats) float64 { return float64(s.ReplicaWriteFailures) }},
		{"nbtiserved_cluster_replica_reads_total", "counter", "Job reads served by a ring successor instead of the primary owner.", func(s Stats) float64 { return float64(s.ReplicaReads) }},
		{"nbtiserved_cluster_sweeps_resumed_total", "counter", "Checkpointed sweeps resumed after a coordinator restart.", func(s Stats) float64 { return float64(s.SweepsResumed) }},
		{"nbtiserved_cluster_shard_streams_total", "counter", "Shard completion streams opened by the dispatch path (reopens after a sever included).", func(s Stats) float64 { return float64(s.StreamsOpened) }},
		{"nbtiserved_cluster_shard_stream_events_total", "counter", "Job results merged off shard completion streams.", func(s Stats) float64 { return float64(s.EventsStreamed) }},
	}
	sets := make([]func(Stats), 0, len(rows))
	for _, row := range rows {
		read := row.read
		if row.typ == "counter" {
			ctr := r.Counter(row.name, row.help)
			sets = append(sets, func(st Stats) { ctr.Set(uint64(read(st))) })
		} else {
			g := r.Gauge(row.name, row.help)
			sets = append(sets, func(st Stats) { g.Set(read(st)) })
		}
	}
	shardAlive := r.GaugeVec("nbtiserved_cluster_shard_alive",
		"1 while the shard is in the ring.", "peer")
	shardRouted := r.CounterVec("nbtiserved_cluster_shard_jobs_routed_total",
		"Job dispatches accepted by this shard.", "peer")
	shardRetried := r.CounterVec("nbtiserved_cluster_shard_jobs_retried_total",
		"Accepted dispatches that re-dispatched an already-routed job.", "peer")
	shardMerged := r.CounterVec("nbtiserved_cluster_shard_jobs_merged_total",
		"Job results merged from this shard.", "peer")
	r.OnCollect(func() {
		st := c.Stats()
		for _, set := range sets {
			set(st)
		}
		for _, sh := range st.Shards {
			alive := 0.0
			if sh.Alive {
				alive = 1
			}
			shardAlive.With(sh.Peer).Set(alive)
			shardRouted.With(sh.Peer).Set(sh.Routed)
			shardRetried.With(sh.Peer).Set(sh.Retried)
			shardMerged.With(sh.Peer).Set(sh.Merged)
		}
	})
}

// itoa keeps span-attribute call sites short.
func itoa(n int) string { return strconv.Itoa(n) }
