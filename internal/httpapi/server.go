// Package httpapi is the HTTP surface of one simulation node: the
// route table, request bounding, and sweep-handle retention that
// cmd/nbtiserved mounts in node mode, importable so the in-process
// cluster test harness can stand up real nbtiserved nodes without
// forking binaries. The coordinator-mode surface (the same /v1/sweeps
// routes served by a cluster.Coordinator instead of an engine) lives in
// internal/cluster, which shares this package's wire types.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/http/pprof"

	"nbticache/internal/engine"
	"nbticache/internal/obs"
	"nbticache/internal/trace"
)

// Config bounds the server's per-request and retained state; the
// zero value selects the defaults.
type Config struct {
	// MaxTraceBytes caps one trace-upload body.
	MaxTraceBytes int64
	// RetainSweeps caps resident sweep handles: once exceeded, the
	// oldest *finished* sweeps are evicted (running ones never are).
	// Evicted sweeps 404 by sweep ID, but their per-job results stay
	// resolvable at /v1/jobs/{id} through the content-addressed cache.
	RetainSweeps int
	// MaxConcurrentUploads bounds trace-upload decodes running at once
	// (each can materialise several times its wire size as accesses);
	// excess uploads are turned away with 503.
	MaxConcurrentUploads int
	// EnablePprof mounts the runtime profiling handlers under
	// /debug/pprof/, so the simulation hot path can be profiled in situ
	// (`go tool pprof http://host/debug/pprof/profile`). Off by default:
	// profiles expose internals, so the operator opts in per process
	// (-pprof on nbtiserved).
	EnablePprof bool
}

// Defaults substituted for non-positive Config fields.
const (
	DefaultMaxTraceBytes        = 64 << 20
	DefaultRetainSweeps         = 256
	DefaultMaxConcurrentUploads = 4
)

// withDefaults substitutes the default for any non-positive limit:
// "unlimited" is deliberately not expressible, so a stray -1 cannot
// invert a bound (rejecting every upload, evicting every sweep).
func (c Config) withDefaults() Config {
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = DefaultMaxTraceBytes
	}
	if c.RetainSweeps <= 0 {
		c.RetainSweeps = DefaultRetainSweeps
	}
	if c.MaxConcurrentUploads <= 0 {
		c.MaxConcurrentUploads = DefaultMaxConcurrentUploads
	}
	return c
}

// Server is the HTTP face of one engine: sweeps are submitted, polled
// and cancelled by ID; traces are uploaded and resolved by content
// address; completed jobs resolve by content address from any sweep.
// All state lives in the engine and this registry, so the handler set
// is trivially shareable across connections.
type Server struct {
	eng *engine.Engine
	cfg Config
	tel *obs.Telemetry

	// uploadSlots is a semaphore over concurrent upload decodes.
	uploadSlots chan struct{}

	sweeps    *Registry
	streamMet *StreamMetrics
}

// NewServer wraps an engine in the node route table. The server shares
// the engine's telemetry bundle: /metrics renders the engine's registry
// (plus the sweep-registry series registered here) and the span
// endpoints read the engine's tracer.
func NewServer(eng *engine.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:         eng,
		cfg:         cfg,
		tel:         eng.Telemetry(),
		uploadSlots: make(chan struct{}, cfg.MaxConcurrentUploads),
		sweeps:      NewRegistry(cfg.RetainSweeps),
	}
	s.streamMet = NewStreamMetrics(s.tel.Metrics)
	if reg := s.tel.Metrics; reg != nil {
		retained := reg.Gauge("nbtiserved_sweeps_retained", "Sweep handles resident in the registry.")
		evicted := reg.Counter("nbtiserved_sweeps_evicted_total", "Finished sweep handles evicted by retention.")
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
	s.sweeps.Mount(mux, s.streamMet)
	mux.HandleFunc("GET /v1/sweeps/{id}/spans", s.sweeps.Serve(s.getSweepSpans))
	mux.HandleFunc("GET /v1/spans/{traceid}", s.getTraceSpans)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("PUT /v1/jobs/{id}", s.putJob)
	mux.HandleFunc("POST /v1/traces", s.uploadTrace)
	mux.HandleFunc("GET /v1/traces", s.listTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.getTrace)
	mux.HandleFunc("GET /v1/traces/{id}/content", s.getTraceContent)
	mux.HandleFunc("DELETE /v1/traces/{id}", s.deleteTrace)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	if s.cfg.EnablePprof {
		RegisterPprof(mux)
	}
	return WithMetrics(s.tel.Metrics, mux)
}

// RegisterPprof mounts the net/http/pprof handlers on mux, shared by the
// node and coordinator servers.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// WriteJSON renders v with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// APIError is the error envelope every non-2xx response carries.
type APIError struct {
	Error string `json:"error"`
}

// WriteError renders an APIError with status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
}

// SubmitResponse acknowledges a sweep submission.
type SubmitResponse struct {
	ID     string   `json:"id"`
	Total  int      `json:"total"`
	JobIDs []string `json:"job_ids"`
}

// submitSweep accepts an engine.SweepSpec JSON body, expands and
// enqueues it, and returns 202 with the sweep ID and the per-job content
// addresses (each later resolvable at /v1/jobs/{id}).
func (s *Server) submitSweep(w http.ResponseWriter, r *http.Request) {
	var spec engine.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	// A coordinator (or any tracing client) hands us its span context via
	// the traceparent header; the sweep's span tree then joins that trace
	// instead of rooting a new one, which is what lets the coordinator
	// stitch one tree across shards.
	ctx := r.Context()
	if sc := obs.Extract(r.Header); sc.Valid() {
		ctx = obs.ContextWith(ctx, sc)
	}
	h, err := s.eng.Submit(ctx, spec)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.sweeps.Add(h)

	jobs := h.Jobs()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID()
	}
	WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: h.ID, Total: len(jobs), JobIDs: ids})
}

// SweepResponse is the GET /v1/sweeps/{id} view: live status always,
// per-job results for every slot that has resolved so far.
type SweepResponse struct {
	Status engine.SweepStatus  `json:"status"`
	Jobs   []*engine.JobResult `json:"jobs"`
}

// UploadResponse acknowledges a trace upload. Created distinguishes a
// fresh admission from a content-address hit on an already-resident
// trace (uploads are idempotent).
type UploadResponse struct {
	engine.TraceInfo
	Created bool `json:"created"`
}

// uploadTrace ingests a real address trace. The body is either wire
// format — binary (v1 counted or v2 streamed) or text — selected by
// Content-Type (application/octet-stream forces binary, text/* forces
// text, anything else is sniffed from the magic) and decoded
// incrementally in bounded memory. Admission content-addresses the trace
// and measures its bank-idleness signature, both returned immediately;
// the ID then references the trace in job and sweep specs.
func (s *Server) uploadTrace(w http.ResponseWriter, r *http.Request) {
	// The byte cap bounds wire size, not decoded footprint (a dense
	// 64 MiB binary body materialises ~8x that as accesses), so bound
	// how many decodes run at once rather than letting a burst of
	// maximal uploads multiply it.
	select {
	case s.uploadSlots <- struct{}{}:
		defer func() { <-s.uploadSlots }()
	default:
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "too many concurrent trace uploads (limit %d)", s.cfg.MaxConcurrentUploads)
		return
	}
	tr, ok := ReadTraceUpload(w, r, s.cfg.MaxTraceBytes)
	if !ok {
		return
	}
	info, existed, err := s.eng.AddTrace(tr)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, engine.ErrTraceStoreFull) {
			code = http.StatusInsufficientStorage
		}
		WriteError(w, code, "%v", err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	WriteJSON(w, code, UploadResponse{TraceInfo: info, Created: !existed})
}

// ReadTraceUpload decodes one trace-upload request body under the
// node's rules — body capped at maxBytes, wire format selected by
// Content-Type (application/octet-stream forces binary, text/plain
// forces text, anything else is sniffed from the magic), decoded
// incrementally in bounded memory, trailing bytes rejected, the ?name=
// query filled into an unnamed trace. On failure the error response has
// already been written and ok is false. Shared by the node server and
// the cluster coordinator server so the two upload surfaces cannot
// drift apart.
func ReadTraceUpload(w http.ResponseWriter, r *http.Request, maxBytes int64) (tr *trace.Trace, ok bool) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	var d *trace.Decoder
	var err error
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch {
	case ctype == "application/octet-stream":
		d, err = trace.NewBinaryDecoder(body)
	case ctype == "text/plain":
		d = trace.NewTextDecoder(body)
	default:
		d, err = trace.NewDecoder(body)
	}
	if err != nil {
		WriteTraceError(w, err)
		return nil, false
	}
	// Every decoded access costs at least 3 wire bytes (binary) so the
	// byte cap already bounds the count; the explicit cap keeps a
	// pathological text body (blank-line padding) from inflating it.
	tr, err = d.ReadAll(int(maxBytes / 3))
	if err != nil {
		WriteTraceError(w, err)
		return nil, false
	}
	// One request is one trace: the binary decoder stops at the end of
	// the trace, so leftover bytes mean a concatenated or corrupt body
	// the client would otherwise believe was stored in full.
	if more, err := d.More(); err != nil {
		WriteTraceError(w, err)
		return nil, false
	} else if more {
		WriteError(w, http.StatusBadRequest, "trailing data after trace (one trace per upload)")
		return nil, false
	}
	if name := r.URL.Query().Get("name"); name != "" && tr.Name == "" {
		tr.Name = name
	}
	return tr, true
}

// WriteTraceError maps decode failures to status codes: an oversized
// body is 413, malformed input 400. Shared with the coordinator
// server, whose upload path decodes the same wire formats.
func WriteTraceError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		WriteError(w, http.StatusRequestEntityTooLarge, "trace body exceeds %d bytes", maxErr.Limit)
	case errors.Is(err, trace.ErrTooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		WriteError(w, http.StatusBadRequest, "bad trace: %v", err)
	}
}

// getTrace returns an uploaded trace's stored metadata and signature.
func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	info, ok := s.eng.TraceInfo(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no trace %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// deleteTrace frees an uploaded trace's store slot. A trace referenced
// by an in-flight sweep is pinned: it disappears from listings and new
// submissions immediately, the running sweep's jobs still resolve it,
// and the storage (persistent blob included) is reclaimed when the
// sweep finishes. Later references fail as unknown either way.
func (s *Server) deleteTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.eng.RemoveTrace(id) {
		WriteError(w, http.StatusNotFound, "no trace %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

// listTraces enumerates the uploaded traces.
func (s *Server) listTraces(w http.ResponseWriter, _ *http.Request) {
	infos := s.eng.TraceInfos()
	WriteJSON(w, http.StatusOK, map[string]any{"total": len(infos), "traces": infos})
}

// getTraceContent streams an uploaded trace's canonical binary
// encoding — the bytes its content address hashes. This is the cluster
// coordinator's forwarding path: fetch the content from the node that
// has the trace, re-upload it to the shard that owns its jobs, and the
// content address survives the copy.
func (s *Server) getTraceContent(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Stream straight from the store — buffering would pin the whole
	// encoding (up to the upload size cap) per concurrent request,
	// which is exactly what the upload path's gate exists to prevent.
	// WriteTrace writes nothing when the trace is absent, so the 404
	// still goes out clean; a failure mid-stream can only truncate the
	// body, which the self-delimiting binary framing surfaces to the
	// decoder on the other end.
	w.Header().Set("Content-Type", "application/octet-stream")
	found, err := s.eng.WriteTrace(w, id)
	if !found {
		w.Header().Del("Content-Type")
		WriteError(w, http.StatusNotFound, "no trace %q", id)
		return
	}
	_ = err // mid-stream write errors have no channel but the truncated body
}

// getJob resolves one job by content address, from any sweep ever run on
// this engine.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.eng.Job(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no completed job %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// putJob admits a job result computed elsewhere into this node's
// content-addressed cache — the receiving end of the coordinator's
// replicated write-through. The engine re-derives the spec's content
// address and rejects a body that does not answer for the path ID, so
// a replica cannot be poisoned. 201 on first admission, 200 when the
// result was already cached (write-throughs are idempotent).
func (s *Server) putJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var res engine.JobResult
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&res); err != nil {
		WriteError(w, http.StatusBadRequest, "bad job result: %v", err)
		return
	}
	if res.ID != id {
		WriteError(w, http.StatusUnprocessableEntity, "body ID %q does not match path ID %q", res.ID, id)
		return
	}
	created, err := s.eng.ImportResult(&res)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	WriteJSON(w, code, map[string]any{"id": id, "created": created})
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metrics serves the telemetry registry in Prometheus text exposition
// format (plus a JSON variant via ?format=json). The registry's collect
// hooks mirror the engine's Stats and the sweep registry's counts at
// scrape time, so every series the hand-rolled exposition used to carry
// is still here — under the same names — alongside the histogram
// families the registry owns outright.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		st := s.eng.Stats()
		retained, evicted := s.sweeps.Counts()
		WriteJSON(w, http.StatusOK, struct {
			engine.Stats
			SweepsRetained int    `json:"sweeps_retained"`
			SweepsEvicted  uint64 `json:"sweeps_evicted"`
		}{st, retained, evicted})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.tel.Metrics.WriteText(w)
}

// getSweepSpans serves the recorded span tree of one resident sweep:
// the sweep span, one job span per executed slot, and the per-phase
// children under each.
func (s *Server) getSweepSpans(w http.ResponseWriter, _ *http.Request, h *engine.Handle) {
	tid := h.TraceID()
	if tid == "" {
		WriteError(w, http.StatusNotFound, "sweep %q has no trace (tracing disabled)", h.ID)
		return
	}
	WriteJSON(w, http.StatusOK, SpansResponse{TraceID: tid, Spans: s.tel.Tracer.Spans(tid)})
}

// getTraceSpans serves every span this node recorded under a raw trace
// ID. This is the coordinator's stitching path: a distributed sweep
// shares one trace ID across shards, and the coordinator collects each
// shard's fragment here even after the shard's own sweep handle is
// evicted.
func (s *Server) getTraceSpans(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("traceid")
	WriteJSON(w, http.StatusOK, SpansResponse{TraceID: tid, Spans: s.tel.Tracer.Spans(tid)})
}
