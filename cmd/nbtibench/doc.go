// Command nbtibench is the repository's end-to-end, layer-attributed
// benchmark and its performance contract (BENCHMARK.json at the root
// names its workloads, metrics and bounds).
//
// It hosts the real system in-process — engine.New nodes behind the
// httpapi route table and, for cluster, a cluster.Coordinator behind
// its own server, all on 127.0.0.1 listeners — and drives it the way a
// user does: one closed-loop client goroutine, one sweep in flight, at
// most two connections, POST /v1/sweeps then the sweep's event stream
// read with httpapi.NewEventReader. Every time is host time.
//
// # Running
//
// From the repository root, through the wrapper that builds the binary
// from the checkout's sources (under .bench_build):
//
//	bash cmd/nbtibench/run.sh -workload grid -seed 1 -seconds 25 -trace 0
//
// runs one workload in this process and prints, last, one JSON object
// with correct, attempted, failed and metrics (the end-to-end metrics,
// or with -trace 1 the per-layer ones). Without -workload every
// workload runs, each in its own re-executed process so setup time and
// memory are the workload's own:
//
//	bash cmd/nbtibench/run.sh -seed 1 -runs 5 -out bench.json
//	bash cmd/nbtibench/run.sh -seed 1 -trace spans.json -out bench.json
//	bash cmd/nbtibench/run.sh -compare base.json head.json
//
// -trace with a file name adds one traced run per workload and writes
// its spans to spans.<workload>.json. -compare prints, per workload and
// metric, both sides' medians and quartiles, the change and a verdict —
// better, within, worse or unresolved — under the bounds in
// BENCHMARK.json, and exits 1 on any "worse" or on differing served
// results.
//
// # Time budget
//
// A run sets the system up three times (setup_s is the median; each
// setup ends after three unmeasured warm-up rounds), measures for
// -seconds, then checks round 0 against the reference: about
// 5 s + -seconds on a 2-core host. A traced run splits -seconds between
// the untraced rounds and the replay. Without -seconds the measured
// time is 25 s for grid, upload and cluster and 15 s for warm, enough
// for at least 100 rounds of each on a 2-core host; job_ms_p99, over
// 54 or 8 job frames a round, has far more than ten samples beyond it.
//
// # Workloads
//
// -seed picks the inputs: a seeded shuffle of workload.Names() gives the
// six benches of grid, warm and cluster, and a seeded shuffle of the
// profiles, with seeded generator seeds, the eight upload traces. Nodes
// run one worker per CPU; cluster shards one each.
//
//   - grid: one memory-only node, reporting-quality generated traces
//     (DefaultGenParams, ~650k accesses); each round resets the results
//     (Engine.ResetRuns) and sweeps 6 benches × banks {2,4,8} ×
//     {identity, probing, scrambling} = 54 jobs, 9 per trace. The
//     kernel does most of the work, so job scheduling and queueing show
//     here; ingest and persistence do nothing.
//   - upload: one node with a data directory; each round uploads the 8
//     pre-encoded binary traces (~97k accesses, ~420 KB each) under a
//     fresh fixed-width name, sweeps each once (banks 4, probing) and
//     deletes them. Content and job IDs are new every round while the
//     statistics repeat. This is the write path: decode, signature
//     admission and inline-fsync trace blobs dominate, and with every
//     trace walked once there is nothing for run sharing to share.
//   - warm: one node whose data directory holds grid's 54 results; each
//     round closes the engine and its server, reopens both on the
//     directory and resubmits grid's sweep. Every job is a persisted
//     hit: no kernel work, only blob reads, result decoding and SSE. It
//     serves the same job IDs as grid, so the two compare like with
//     like.
//   - cluster: a coordinator over 3 shards with their own data
//     directories; the 54-job grid on quick traces (192×512), shards
//     reset between rounds. Per-job compute is ~1 ms, so dispatch,
//     streaming and merge carry the round and kernel wins are diluted.
//
// # End-to-end metrics
//
// Medians over a run's measured rounds unless named otherwise:
//
//   - setup_s: start to ready — aging characterisation, engine and
//     server open, trace generation or encoding, warm-up (the median of
//     the run's setups; the first counts from process start).
//   - sweep_ms_p50: POST to the done frame.
//   - job_ms_p50, job_ms_p99: POST to each job frame.
//   - jobs_per_s, accesses_per_s: completed jobs, and the simulated
//     accesses their results cover, per host second of the measured
//     rounds (warm's are served from disk, not simulated).
//   - cpu_ms_per_job: process user+system CPU over completed jobs.
//   - round_ms_p50: the whole closed-loop round, including its
//     preparation: the uploads and deletes on upload, the reopen on
//     warm, the result reset on grid and cluster.
//   - rss_mb_peak: peak resident memory of the run's process.
//
// Failed or cancelled jobs, non-2xx answers and gate mismatches are
// counted in the result's failed, over attempted (jobs plus requests).
//
// # Per-layer metrics
//
// The traced run (-trace 1, or a spans file) replays rounds of the
// workload by calling each layer's public function on the workload's own
// inputs, wrapped in spans kept in memory (name, start, end, parent,
// round; see span); nothing inside the program is instrumented. Rounds
// alternate spans on and off; trace_overhead_pct is the difference. Each
// metric below is predicted to move the named end-to-end metric on the
// first workload and to leave it unchanged on the last:
//
//	metric                            timed call                          moves                               on        no change on
//	workload.generate_ms              Profile.Generate                    setup_s                             grid      warm
//	workload.signature_ms             MeasureSignature                    round_ms_p50                        upload    grid
//	trace.decode_ns_per_access        NewBinaryDecoder + ReadAll          round_ms_p50                        upload    grid
//	trace.transpose_ns_per_access     trace.FromRows                      round_ms_p50                        upload    warm
//	core.kernel_ns_per_access         core.New + RunColumnsUnchecked      jobs_per_s, sweep_ms_p50            grid      warm
//	core.kernel_ms_per_round          the same, a round's jobs in         sweep_ms_p50, accesses_per_s        grid      warm
//	                                  parallel
//	core.accesses_per_round           (count of the above)                cpu_ms_per_job                      grid      warm
//	core.reference_ns_per_access      PartitionedCache.Run (row oracle)   none: the gate's cost               -         all
//	core.project_us_per_job           ProjectAging                        none predicted (~µs vs ~7 ms)       grid      warm
//	engine.add_trace_ms               Engine.AddTrace                     round_ms_p50                        upload    grid
//	engine.submit_us                  Engine.Submit                       job_ms_p50                          warm      grid
//	engine.open_ms                    engine.New on a data directory      round_ms_p50                        warm      grid
//	engine.hit_us_per_job             Engine.RunJob on a persisted hit    sweep_ms_p50                        warm      grid
//	engine.{queue,resolve,simulate,   served JobResult.Timing, as a       job_ms_p50                          grid      warm
//	  project,persist}_pct            share of the jobs' total
//	engine.cache_hit_ratio,           Engine.Stats deltas over a served   jobs_per_s                          grid      upload
//	  engine.runs_shared_ratio        round
//	cas.put_us                        DiskStore.Put, on the workload's    round_ms_p50                        upload    grid
//	                                  result and trace blobs
//	cas.get_us, cas.getblob_us        DiskStore.Get, GetBlob              sweep_ms_p50                        warm      grid
//	cas.open_ms                       cas.OpenDisk                        round_ms_p50                        warm      grid
//	httpapi.submit_ms                 POST /v1/sweeps round trip          job_ms_p50                          warm      grid jobs_per_s
//	httpapi.stream_open_ms            GET events to its headers           job_ms_p50                          cluster   grid jobs_per_s
//	httpapi.frame_encode_us           EncodeJobFrame                      job_ms_p50                          warm      grid jobs_per_s
//	httpapi.frame_decode_us           EventReader.Next + JobEvent         job_ms_p50, cpu_ms_per_job          warm      grid jobs_per_s
//	cluster.submit_ms                 Coordinator.Submit                  job_ms_p50                          cluster   grid
//	cluster.first_event_ms            Handle.EventsFrom, first event      job_ms_p50                          cluster   grid
//	cluster.wait_tail_ms              Handle.Wait after the first event   sweep_ms_p50                        cluster   upload
//	cluster.shard_skew,               Coordinator.Stats deltas            sweep_ms_p50                        cluster   warm
//	  cluster.retried_jobs,
//	  cluster.stream_event_ratio
//	first_result_ms_p50               POST to the first job frame, over   (diagnostic)                        -         -
//	                                  the untraced rounds
//	sweep_ms_p90                      POST to the done frame, over the    (diagnostic)                        -         -
//	                                  untraced rounds
//	other_pct                         the served round's CPU no layer     -                                   all       -
//	                                  accounts for
//
// first_result_ms_p50 is end to end but demoted to this diagnostic: on
// grid its run-to-run spread was 42%, because the event stream's
// handler waits for a time slice while the workers run the kernel.
// sweep_ms_p90 is demoted too: on cluster, where three shard workers,
// the coordinator and the client share two cores, the quartiles of ten
// runs of the same code spread up to 26% of its median, past any bound
// the contract allows. job_ms_p99 remains the end-to-end tail.
//
// The cluster layer runs on every workload: for grid, upload and warm
// through a coordinator over the workload's one node. other_pct compares
// a served round's process CPU, taken during the replay, with the spans
// that stand for that round's work (see attribution).
//
// # Correctness gate
//
// Round 0's served Run and Projection must equal, byte for byte in
// their JSON encoding (exact for finite floats), the in-process row
// reference: core.New and Run, then ProjectAging. Every later round,
// warm-ups and later setups included, must serve the same statistics
// per job (uploads differ only in the trace name), and cluster's must
// also equal one memory-only node's. A mismatch makes the run incorrect
// and exits 1. results_digest condenses round 0 so two commits compare
// without the full results; grid and warm print the same one.
package main
