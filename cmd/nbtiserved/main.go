// Nbtiserved serves batch NBTI-aging sweeps over HTTP: clients POST a
// sweep spec (explicit jobs and/or cartesian axes over workload ×
// geometry × banks × policy × sleep mode), the engine fans it out on a
// bounded worker pool with content-addressed result caching, and clients
// stream per-job lifetimes, energy and idleness as they complete (or
// poll, which stays supported).
//
// Real address traces upload through POST /v1/traces (binary or text
// wire format, decoded incrementally in bounded memory): admission
// content-addresses the trace, measures its bank-idleness signature, and
// returns both; the returned ID then references the workload in job and
// sweep specs ("trace_id" / "trace_ids") exactly like a benchmark name.
//
// With -data-dir set, completed job results and uploaded traces persist
// to a content-addressed disk store (crash-safe writes, checksummed
// blobs): a restarted server lists the traces again and serves
// previously simulated jobs from disk without re-simulating. Without
// it, everything is memory-only, as before.
//
// With -peers set, the process runs as a cluster coordinator instead of
// a simulation node: it serves the same /v1/sweeps surface, but splits
// each sweep's job space across the peer nbtiserved nodes by
// consistent-hash ownership of the job content addresses, forwards
// uploaded traces to the shard that owns their jobs on demand, merges
// per-shard progress and results into one sweep — following each
// shard's completion stream, reopened at its cursor if severed — and
// re-routes jobs from a failed peer to the next ring owner. /metrics
// then reports the routing counters, including per-shard
// routed/retried/merged series.
//
// Membership is elastic: a health-probe loop evicts unresponsive peers
// (after consecutive failures, never on one transient miss) and
// re-admits recovered ones. New nodes join a running coordinator at
// runtime by starting with -join http://coordinator -advertise
// http://self. With -replicas N, merged job results are written through
// to N ring owners so a dead node's results stay readable. A
// coordinator started with -data-dir checkpoints every in-flight
// sweep's ID and spec once and resumes unfinished ones on restart. The
// one recovery path is re-dispatch: every unresolved job goes to its
// current ring owner, whose result cache answers the jobs it already
// holds without simulating them again.
//
//	POST   /v1/sweeps       submit a sweep (engine.SweepSpec JSON) -> 202 {id, job_ids}
//	GET    /v1/sweeps/{id}  progress + resolved results
//	GET    /v1/sweeps/{id}/events  per-job completions as Server-Sent Events (resume with Last-Event-ID)
//	DELETE /v1/sweeps/{id}  cancel
//	GET    /v1/jobs/{id}    one job by content address
//	POST   /v1/traces       upload a trace -> 201 {id, signature, ...}
//	GET    /v1/traces       list uploaded traces
//	GET    /v1/traces/{id}  one uploaded trace's metadata + signature
//	GET    /v1/traces/{id}/content  the canonical binary encoding (node mode)
//	DELETE /v1/traces/{id}  free an uploaded trace's store slot (node mode)
//	GET    /healthz         liveness
//	GET    /metrics         engine or coordinator counters (Prometheus text)
//	GET    /debug/pprof/*   runtime profiles (only with -pprof)
//
// Example:
//
//	nbtiserved -addr :8080 &
//	curl -s -X POST localhost:8080/v1/sweeps \
//	  -d '{"benches":["sha","gsme"],"banks":[2,4,8,16],"policies":["identity","probing"]}'
//	curl -s localhost:8080/v1/sweeps/sweep-1
//	curl -sN localhost:8080/v1/sweeps/sweep-1/events   # stream completions as they merge
//	curl -s --data-binary @app.trace localhost:8080/v1/traces
//	curl -s -X POST localhost:8080/v1/sweeps -d '{"trace_ids":["trace-<hex>"],"banks":[2,4,8]}'
//
// Sharded across three nodes:
//
//	nbtiserved -addr :8081 -data-dir /var/lib/nbti1 &
//	nbtiserved -addr :8082 -data-dir /var/lib/nbti2 &
//	nbtiserved -addr :8083 -data-dir /var/lib/nbti3 &
//	nbtiserved -addr :8080 -peers http://localhost:8081,http://localhost:8082,http://localhost:8083 &
//	curl -s -X POST localhost:8080/v1/sweeps -d '{"banks":[2,4,8,16]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nbticache/internal/cache"
	"nbticache/internal/cluster"
	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/obs"
	"nbticache/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	quick := flag.Bool("quick", false, "generate short traces (smoke quality) instead of reporting quality")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	maxTraceBytes := flag.Int64("max-trace-bytes", httpapi.DefaultMaxTraceBytes, "largest accepted trace-upload body")
	maxTraces := flag.Int("max-traces", engine.DefaultMaxStoredTraces, "uploaded traces kept resident (uploads 507 past this; DELETE /v1/traces/{id} frees slots)")
	retainSweeps := flag.Int("retain-sweeps", httpapi.DefaultRetainSweeps, "finished sweep handles kept before the oldest are evicted")
	dataDir := flag.String("data-dir", "", "persist job results and uploaded traces here so restarts warm-start (empty = memory-only)")
	maxResults := flag.Int("max-results", engine.DefaultMaxCachedResults, "job results kept in the cache before the oldest are evicted")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/ (CPU/heap profiling of the live simulation hot path)")
	peers := flag.String("peers", "", "comma-separated shard base URLs; when set, run as a cluster coordinator over them instead of a simulation node")
	ringReplicas := flag.Int("ring-replicas", cluster.DefaultReplicas, "coordinator mode: consistent-hash virtual nodes per peer")
	pollInterval := flag.Duration("poll-interval", cluster.DefaultPollInterval, "coordinator mode: the base of the stalled-round and stream-reopen backoff")
	replicas := flag.Int("replicas", 1, "coordinator mode: ring owners each job result is written to (1 = no replication)")
	healthInterval := flag.Duration("health-interval", cluster.DefaultHealthInterval, "coordinator mode: membership health-probe cadence (negative disables the probe loop)")
	join := flag.String("join", "", "node mode: coordinator base URL to announce this node to at startup (elastic join; requires -advertise)")
	advertise := flag.String("advertise", "", "node mode: this node's base URL as peers should reach it, announced via -join")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	flag.Parse()

	logger, err := obs.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		// The logger itself is unusable; this is the one failure that
		// still goes through the stock logger.
		fmt.Fprintf(os.Stderr, "nbtiserved: %v\n", err)
		os.Exit(1)
	}
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	var handler http.Handler
	var shutdown func()
	if *peers != "" {
		// Node-only flags have no effect on a coordinator (it holds no
		// engine); dropping them silently would let an operator believe
		// e.g. -max-traces was bounding coordinator state. (-data-dir IS
		// meaningful here: it persists sweep checkpoints for resume.)
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers", "quick", "max-traces", "max-results", "join", "advertise":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			logger.Warn("coordinator mode ignores node-only flags",
				"flags", strings.Join(ignored, ", "))
		}
		coord, err := cluster.New(cluster.Options{
			Peers:          strings.Split(*peers, ","),
			Replicas:       *ringReplicas,
			PollInterval:   *pollInterval,
			HealthInterval: *healthInterval,
			OwnerReplicas:  *replicas,
			DataDir:        *dataDir,
			// Forwarded traces were admitted under the shards' upload
			// cap; mirror it (x2 slack for wire-format differences).
			MaxForwardBytes: 2 * *maxTraceBytes,
			Logger:          logger,
		})
		if err != nil {
			fatal(err)
		}
		csrv := cluster.NewServer(coord, cluster.ServerConfig{
			MaxTraceBytes: *maxTraceBytes,
			RetainSweeps:  *retainSweeps,
			EnablePprof:   *pprofOn,
		})
		if *dataDir != "" {
			// Resume the sweeps a previous coordinator left checkpointed
			// before the listener opens, and adopt their handles so
			// pre-restart clients' polls keep answering.
			resumed, err := coord.Resume(context.Background())
			if err != nil {
				fatal(err)
			}
			for _, h := range resumed {
				csrv.Adopt(h)
				logger.Info("resumed sweep", "sweep_id", h.ID, "jobs", len(h.Jobs()))
			}
			logger.Info("sweep-state persistence enabled", "dir", *dataDir, "resumed", len(resumed))
		}
		handler = csrv.Handler()
		shutdown = coord.Close
		logger.Info("coordinator mode", "peers", len(coord.Peers()),
			"owner_replicas", *replicas, "health_interval", (*healthInterval).String())
	} else {
		// The symmetric silent-drop guard: coordinator-only flags do
		// nothing without -peers.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ring-replicas", "poll-interval", "replicas", "health-interval":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			logger.Warn("node mode ignores coordinator-only flags (set -peers to run a coordinator)",
				"flags", strings.Join(ignored, ", "))
		}
		if *join != "" && *advertise == "" {
			fatal(errors.New("-join requires -advertise (the URL peers reach this node at cannot be guessed from -addr)"))
		}
		opts := engine.Options{
			Workers:          *workers,
			MaxStoredTraces:  *maxTraces,
			DataDir:          *dataDir,
			MaxCachedResults: *maxResults,
		}
		if *quick {
			opts.Gen = func(g cache.Geometry) workload.GenParams {
				return workload.GenParams{Geometry: g, Phases: 192, AccessesPerPhase: 512}
			}
		}
		eng, err := engine.New(opts)
		if err != nil {
			// An unusable -data-dir fails here, before the listener opens,
			// not on the first write.
			fatal(err)
		}
		if *dataDir != "" {
			st := eng.Stats()
			logger.Info("persistence warm-started", "dir", *dataDir,
				"traces", st.TracesStored, "job_results", st.ResultBlobs)
		}
		handler = httpapi.NewServer(eng, httpapi.Config{
			MaxTraceBytes: *maxTraceBytes,
			RetainSweeps:  *retainSweeps,
			EnablePprof:   *pprofOn,
		}).Handler()
		shutdown = eng.Close // cancels in-flight sweeps, unblocks any waiters
		logger.Info("node mode", "workers", eng.Workers())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	if *join != "" && *peers == "" {
		// Elastic join: announce this node to the coordinator until it
		// answers, then keep re-announcing at a slow cadence. Announcing
		// is idempotent on the coordinator, and the re-announce means a
		// coordinator restarted without this node in its -peers list
		// learns it again within a beat.
		go func() {
			hc := &http.Client{Timeout: 10 * time.Second}
			announced := false
			for {
				if err := cluster.Announce(ctx, hc, *join, *advertise); err != nil {
					if ctx.Err() != nil {
						return
					}
					logger.Warn("join announce failed; retrying", "coordinator", *join, "err", err)
				} else if !announced {
					announced = true
					logger.Info("joined cluster", "coordinator", *join, "advertise", *advertise)
				}
				delay := 15 * time.Second
				if !announced {
					delay = 2 * time.Second
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(delay):
				}
			}
		}()
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	shutdown()
	logger.Info("bye")
}
