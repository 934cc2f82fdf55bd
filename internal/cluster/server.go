package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/obs"
	"nbticache/internal/trace"
)

// ServerConfig bounds the coordinator server's per-request and retained
// state; the zero value selects the node server's defaults.
type ServerConfig struct {
	// MaxTraceBytes caps one trace-upload body routed through the
	// coordinator.
	MaxTraceBytes int64
	// RetainSweeps caps resident merged-sweep handles (oldest finished
	// evicted past it, exactly like the node server).
	RetainSweeps int
	// MaxConcurrentUploads bounds trace-upload decodes running at once
	// (the coordinator materialises the decoded accesses and the
	// canonical re-encoding before routing, so an ungated burst would
	// multiply the body cap in resident memory exactly like on a node);
	// excess uploads are turned away with 503.
	MaxConcurrentUploads int
	// EnablePprof mounts the runtime profiling handlers under
	// /debug/pprof/, exactly like the node server's option.
	EnablePprof bool
	// EventHeartbeat is the merged-sweep event stream's idle heartbeat
	// cadence; <= 0 selects httpapi.DefaultEventHeartbeat.
	EventHeartbeat time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = httpapi.DefaultMaxTraceBytes
	}
	if c.RetainSweeps <= 0 {
		c.RetainSweeps = httpapi.DefaultRetainSweeps
	}
	if c.MaxConcurrentUploads <= 0 {
		c.MaxConcurrentUploads = httpapi.DefaultMaxConcurrentUploads
	}
	return c
}

// Server is the coordinator-mode HTTP surface: the same /v1 routes a
// node serves, but backed by a Coordinator instead of an engine —
// sweeps shard across the peers, trace uploads route to the content
// address's owning shard, and job/trace reads proxy to the owner (with
// a fallback scan, since re-routing may have landed work elsewhere).
type Server struct {
	coord *Coordinator
	cfg   ServerConfig

	// uploadSlots is a semaphore over concurrent upload decodes.
	uploadSlots chan struct{}

	sweeps    *httpapi.Registry
	streamMet *httpapi.StreamMetrics
}

// NewServer wraps a coordinator in the route table. The server shares
// the coordinator's telemetry bundle: /metrics renders its registry
// (plus the sweep-registry series registered here) and the spans
// endpoint stitches trees from its tracer and the shards'.
func NewServer(c *Coordinator, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		coord:       c,
		cfg:         cfg,
		uploadSlots: make(chan struct{}, cfg.MaxConcurrentUploads),
		sweeps:      httpapi.NewRegistry(cfg.RetainSweeps),
	}
	s.streamMet = httpapi.NewStreamMetrics(c.tel.Metrics)
	if reg := c.tel.Metrics; reg != nil {
		retained := reg.Gauge("nbtiserved_cluster_sweeps_retained", "Merged sweep handles resident in the registry.")
		evicted := reg.Counter("nbtiserved_cluster_sweeps_evicted_total", "Finished merged sweeps evicted by retention.")
		reg.OnCollect(func() {
			r, e := s.sweeps.Counts()
			retained.Set(float64(r))
			evicted.Set(e)
		})
	}
	return s
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.submitSweep)
	// Status, the completion feed and cancel read the merged sweep's
	// engine.Handle exactly as a node reads its own: results merged from
	// any shard re-emit on the feed in merge order, in the format the
	// shards speak.
	s.sweeps.Mount(mux, s.cfg.EventHeartbeat, s.streamMet)
	mux.HandleFunc("GET /v1/sweeps/{id}/spans", s.sweeps.Serve(s.getSweepSpans))
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("POST /v1/traces", s.uploadTrace)
	mux.HandleFunc("GET /v1/traces", s.listTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.getTrace)
	mux.HandleFunc("POST /v1/cluster/join", s.joinCluster)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	if s.cfg.EnablePprof {
		httpapi.RegisterPprof(mux)
	}
	return httpapi.WithMetrics(s.coord.tel.Metrics, mux)
}

// submitSweep accepts the same engine.SweepSpec body a node does, but
// shards the expanded jobs across the peers.
func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request) {
	var spec engine.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	h, err := s.coord.Submit(r.Context(), spec)
	if err != nil {
		// A bad spec is the client's 422; an unreachable peer during the
		// submit-time trace verification is the cluster's 502, and worth
		// retrying.
		code := http.StatusUnprocessableEntity
		if errors.Is(err, ErrPeerUnavailable) {
			code = http.StatusBadGateway
		}
		httpapi.WriteError(w, code, "%v", err)
		return
	}
	s.sweeps.Add(h.Handle)

	jobs := h.Jobs()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID()
	}
	httpapi.WriteJSON(w, http.StatusAccepted, httpapi.SubmitResponse{ID: h.ID, Total: len(jobs), JobIDs: ids})
}

// Adopt registers a resumed sweep handle (from Coordinator.Resume) in
// the server's registry, so clients polling a pre-restart sweep ID keep
// getting answers from the restarted coordinator.
func (s *Server) Adopt(h *Handle) {
	s.sweeps.Add(h.Handle)
}

// joinCluster admits (or re-admits) an announcing node to the ring —
// the runtime half of elastic membership; nodes started with -join
// POST here until it succeeds.
func (s *Server) joinCluster(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "bad join request: %v", err)
		return
	}
	joined, err := s.coord.Join(req.Peer)
	if err != nil {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	st := s.coord.Stats()
	httpapi.WriteJSON(w, http.StatusOK, JoinResponse{Joined: joined, Peers: st.AlivePeers})
}

// getJob proxies a job read to the content address's owning shard, then
// scans the other live peers (re-routing may have run it elsewhere).
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cands := s.coord.jobCandidates(id)
	if len(cands) == 0 {
		httpapi.WriteError(w, http.StatusServiceUnavailable, "no live shards")
		return
	}
	var probeErr error
	for i, peer := range cands {
		res, found, err := s.coord.client.job(r.Context(), peer, id)
		if err != nil {
			probeErr = err
			continue
		}
		if found {
			if i > 0 {
				// Served by a ring successor, not the primary owner:
				// replicated ownership (or a past re-route) paying off.
				s.coord.replicaReads.Add(1)
			}
			httpapi.WriteJSON(w, http.StatusOK, res)
			return
		}
	}
	if probeErr != nil {
		// Some peer could not answer, so absence is unproven: a 404
		// here would read as a permanent miss for a result that may
		// exist on the shard that just failed to answer.
		httpapi.WriteError(w, http.StatusBadGateway, "locating job %q: %v", id, probeErr)
		return
	}
	httpapi.WriteError(w, http.StatusNotFound, "no completed job %q", id)
}

// uploadTrace decodes the body just enough to learn its content
// address, then routes the canonical bytes to the owning shard. The
// response is the shard's: 201 on first admission, 200 on an
// idempotent re-upload.
func (s *Server) uploadTrace(w http.ResponseWriter, r *http.Request) {
	select {
	case s.uploadSlots <- struct{}{}:
		defer func() { <-s.uploadSlots }()
	default:
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, http.StatusServiceUnavailable, "too many concurrent trace uploads (limit %d)", s.cfg.MaxConcurrentUploads)
		return
	}
	tr, ok := httpapi.ReadTraceUpload(w, r, s.cfg.MaxTraceBytes)
	if !ok {
		return
	}
	if err := tr.Validate(); err != nil {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if tr.Len() == 0 {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "trace %q has no accesses", tr.Name)
		return
	}
	id, _, err := engine.TraceContentID(tr)
	if err != nil {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	owner, ok := s.coord.OwnerOf(id)
	if !ok {
		httpapi.WriteError(w, http.StatusServiceUnavailable, "no live shards")
		return
	}
	var canon bytes.Buffer
	if err := trace.WriteBinary(&canon, tr); err != nil {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	up, err := s.coord.client.uploadTrace(r.Context(), owner, canon.Bytes())
	if err != nil {
		// A shard's own rejection (413/422/507...) passes through with
		// its status; a transport failure is the coordinator's 502.
		var se *statusError
		if errors.As(err, &se) {
			httpapi.WriteJSON(w, se.Code, httpapi.APIError{Error: se.Msg})
			return
		}
		httpapi.WriteError(w, http.StatusBadGateway, "shard %s: %v", owner, err)
		return
	}
	code := http.StatusOK
	if up.Created {
		code = http.StatusCreated
	}
	httpapi.WriteJSON(w, code, up)
}

// getTrace proxies a trace-metadata read to the peer holding it.
func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, info, found, err := s.coord.locateTrace(r.Context(), id)
	if !found {
		if err != nil {
			// A peer could not be checked: absence is unproven.
			httpapi.WriteError(w, http.StatusBadGateway, "locating trace %q: %v", id, err)
			return
		}
		httpapi.WriteError(w, http.StatusNotFound, "no trace %q", id)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, info)
}

// listTraces merges the live peers' listings, deduplicated by content
// address (a forwarded trace is resident on several shards but is one
// trace).
func (s *Server) listTraces(w http.ResponseWriter, r *http.Request) {
	peers := s.coord.alivePeers()
	if len(peers) == 0 {
		// An empty listing would claim the cluster holds nothing; with
		// every shard unreachable that is unproven.
		httpapi.WriteError(w, http.StatusServiceUnavailable, "no live shards")
		return
	}
	seen := make(map[string]bool)
	var infos []engine.TraceInfo
	for _, peer := range peers {
		list, err := s.coord.client.traceInfos(r.Context(), peer)
		if err != nil {
			// A partial listing would read as "those traces are gone";
			// absence is unproven while any shard cannot answer.
			httpapi.WriteError(w, http.StatusBadGateway, "listing traces on %s: %v", peer, err)
			return
		}
		for _, info := range list {
			if !seen[info.ID] {
				seen[info.ID] = true
				infos = append(infos, info)
			}
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"total": len(infos), "traces": infos})
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	st := s.coord.Stats()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "mode": "coordinator",
		"peers": st.Peers, "alive_peers": st.AlivePeers,
	})
}

// metrics serves the telemetry registry in Prometheus text exposition
// format (plus a JSON variant via ?format=json). The registry's collect
// hooks mirror the coordinator's Stats — per-shard {peer="..."} series
// included — and the sweep registry's counts at scrape time, so every
// series the hand-rolled exposition used to carry is still here under
// the same names, alongside the request/dispatch histogram families.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		retained, evicted := s.sweeps.Counts()
		httpapi.WriteJSON(w, http.StatusOK, struct {
			Stats
			SweepsRetained int    `json:"sweeps_retained"`
			SweepsEvicted  uint64 `json:"sweeps_evicted"`
		}{s.coord.Stats(), retained, evicted})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.coord.tel.Metrics.WriteText(w)
}

// getSweepSpans serves the stitched span tree of one merged sweep: the
// coordinator's own spans (sweep root, per-dispatch, trace forwards)
// plus every span fragment the live shards recorded under the same
// trace ID — one tree spanning the whole distributed execution,
// correlated by the trace ID the dispatch requests propagated. Shards
// that fail to answer are skipped (the tree is a diagnostic, and a
// degraded cluster is exactly when it is wanted); dead peers' fragments
// are unreachable and simply absent.
func (s *Server) getSweepSpans(w http.ResponseWriter, r *http.Request, h *engine.Handle) {
	tid := h.TraceID()
	if tid == "" {
		httpapi.WriteError(w, http.StatusNotFound, "sweep %q has no trace (tracing disabled)", h.ID)
		return
	}
	spans := s.coord.tel.Tracer.Spans(tid)
	seen := make(map[string]bool, len(spans))
	for _, sp := range spans {
		seen[sp.SpanID] = true
	}
	for _, peer := range s.coord.alivePeers() {
		remote, err := s.coord.client.spans(r.Context(), peer, tid)
		if err != nil {
			continue
		}
		for _, sp := range remote {
			if !seen[sp.SpanID] {
				seen[sp.SpanID] = true
				spans = append(spans, sp)
			}
		}
	}
	obs.SortSpans(spans)
	httpapi.WriteJSON(w, http.StatusOK, httpapi.SpansResponse{TraceID: tid, Spans: spans})
}

// jobCandidates orders the live peers for a job lookup: owner first,
// then ring successors (where a re-routed job would have run).
func (c *Coordinator) jobCandidates(id string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owners(id, c.ring.Len())
}

// alivePeers lists the peers still in the ring, sorted.
func (c *Coordinator) alivePeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}
