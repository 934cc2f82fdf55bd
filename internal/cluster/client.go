package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/obs"
)

// shardClient speaks the nbtiserved node API (internal/httpapi) to a
// set of peers. It is stateless: every method takes the peer's base URL,
// so one client serves every shard and survives membership changes.
type shardClient struct {
	hc *http.Client
	// streamHC issues the long-lived event-stream requests: same
	// transport as hc but no overall timeout, which would otherwise
	// sever every stream outliving hc's per-request deadline. Stream
	// liveness is enforced by the stall watchdog instead.
	streamHC *http.Client
	// maxForward caps one trace-content download (see traceContent).
	maxForward int64
	// reqSeconds times every shard request by operation; nil (Nop
	// telemetry) records nothing. Set once by the coordinator before any
	// request is issued.
	reqSeconds *obs.HistogramVec
}

// observe starts timing one shard request; call the returned func when
// it completes.
func (sc *shardClient) observe(op string) func() {
	if sc.reqSeconds == nil {
		return func() {}
	}
	h := sc.reqSeconds.With(op)
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

func newShardClient(hc *http.Client, maxForward int64) *shardClient {
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Minute}
	}
	if maxForward <= 0 {
		// A canonical encoding is never larger than the wire body that
		// admitted it, so 2x the node upload default is already
		// generous for default-configured clusters.
		maxForward = 2 * httpapi.DefaultMaxTraceBytes
	}
	streamHC := &http.Client{Transport: hc.Transport, Jar: hc.Jar}
	return &shardClient{hc: hc, streamHC: streamHC, maxForward: maxForward}
}

// streamStallTimeout severs an event stream with no bytes at all (the
// server heartbeats idle streams every httpapi.EventHeartbeat, so a live
// connection is never silent this long); the consumer then reopens it
// at its cursor.
const streamStallTimeout = 2 * time.Minute

// eventStream is one open shard completion feed.
type eventStream struct {
	body     io.ReadCloser
	er       *httpapi.EventReader
	stop     context.CancelFunc
	watchdog *time.Timer
}

// next returns the stream's next frame.
func (s *eventStream) next() (httpapi.EventFrame, error) { return s.er.Next() }

// Close severs the stream and disarms the watchdog. Idempotent.
func (s *eventStream) Close() {
	s.watchdog.Stop()
	s.stop()
	_ = s.body.Close()
}

// openEvents opens a shard sub-sweep's completion stream at cursor
// `from` (sent as Last-Event-ID, so the shard replays every completion
// past it). A shard's non-2xx answer comes back as *statusError. The
// returned stream's reads are bounded by a stall watchdog: a connection
// silent past streamStallTimeout (heartbeats count as activity) is
// cancelled, surfacing as a read error.
func (sc *shardClient) openEvents(ctx context.Context, peer, id string, from int) (*eventStream, error) {
	defer sc.observe("sweep_events")()
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, peer+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(from))
	}
	obs.Inject(ctx, req.Header)
	resp, err := sc.streamHC.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr httpapi.APIError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&apiErr)
		resp.Body.Close()
		cancel()
		return nil, &statusError{Code: resp.StatusCode, Msg: apiErr.Error}
	}
	es := &eventStream{
		body: resp.Body,
		er:   httpapi.NewEventReader(resp.Body),
		stop: cancel,
	}
	es.watchdog = time.AfterFunc(streamStallTimeout, cancel)
	es.er.OnActivity = func() { es.watchdog.Reset(streamStallTimeout) }
	return es, nil
}

// statusError is a peer's own non-2xx answer, as opposed to a transport
// failure. 4xx answers are semantic (the request is wrong everywhere,
// retrying on another shard cannot help); transport failures and 5xx
// mark the peer itself as suspect.
type statusError struct {
	Code int
	Msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, e.Msg)
}

// isPermanent reports whether err is a request-level rejection that
// re-routing to another shard cannot fix.
func isPermanent(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.Code >= 400 && se.Code < 500 &&
		se.Code != http.StatusRequestTimeout && se.Code != http.StatusTooManyRequests
}

// isTransient reports whether err is a healthy peer saying "not right
// now" — the upload-concurrency gate's 503, a full trace store's 507,
// 429, 408. Removing the peer from the ring over one of these would
// collapse a busy-but-alive cluster; the routing loop instead backs off
// and retries, failing the jobs (not the peer) if the condition never
// clears.
func isTransient(err error) bool {
	var se *statusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case http.StatusServiceUnavailable, http.StatusInsufficientStorage,
		http.StatusTooManyRequests, http.StatusRequestTimeout:
		return true
	}
	return false
}

// doJSON issues one request and decodes the JSON answer into out
// (skipped when out is nil). Non-2xx answers become *statusError with
// the peer's error message.
func (sc *shardClient) doJSON(ctx context.Context, method, url string, body []byte, ctype string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	// Propagate the dispatch span across the hop: the shard's submit
	// handler extracts this header, so its engine spans join our trace.
	obs.Inject(ctx, req.Header)
	resp, err := sc.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr httpapi.APIError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&apiErr)
		return &statusError{Code: resp.StatusCode, Msg: apiErr.Error}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return nil
}

// submit posts a sub-sweep to a shard.
func (sc *shardClient) submit(ctx context.Context, peer string, spec engine.SweepSpec) (httpapi.SubmitResponse, error) {
	defer sc.observe("submit")()
	body, err := json.Marshal(spec)
	if err != nil {
		return httpapi.SubmitResponse{}, err
	}
	var out httpapi.SubmitResponse
	err = sc.doJSON(ctx, http.MethodPost, peer+"/v1/sweeps", body, "application/json", &out)
	return out, err
}

// cancelSweep stops a shard sweep (best effort).
func (sc *shardClient) cancelSweep(ctx context.Context, peer, id string) error {
	defer sc.observe("sweep_cancel")()
	return sc.doJSON(ctx, http.MethodDelete, peer+"/v1/sweeps/"+id, nil, "", nil)
}

// job resolves one completed job by content address; found is false on
// a clean 404 (the shard is healthy, it just never ran the job).
func (sc *shardClient) job(ctx context.Context, peer, id string) (*engine.JobResult, bool, error) {
	defer sc.observe("job")()
	var out engine.JobResult
	err := sc.doJSON(ctx, http.MethodGet, peer+"/v1/jobs/"+id, nil, "", &out)
	if err != nil {
		var se *statusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	return &out, true, nil
}

// health probes a peer's liveness endpoint.
func (sc *shardClient) health(ctx context.Context, peer string) error {
	defer sc.observe("health")()
	return sc.doJSON(ctx, http.MethodGet, peer+"/healthz", nil, "", nil)
}

// putJob writes a completed job result through to a replica owner. The
// receiving engine re-derives the content address and rejects a
// mismatch, so a corrupt write-through cannot poison a replica's cache.
func (sc *shardClient) putJob(ctx context.Context, peer string, res *engine.JobResult) error {
	defer sc.observe("job_put")()
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return sc.doJSON(ctx, http.MethodPut, peer+"/v1/jobs/"+res.ID, body, "application/json", nil)
}

// traceInfo fetches an uploaded trace's metadata; found is false on a
// clean 404.
func (sc *shardClient) traceInfo(ctx context.Context, peer, id string) (engine.TraceInfo, bool, error) {
	defer sc.observe("trace_info")()
	var out engine.TraceInfo
	err := sc.doJSON(ctx, http.MethodGet, peer+"/v1/traces/"+id, nil, "", &out)
	if err != nil {
		var se *statusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return engine.TraceInfo{}, false, nil
		}
		return engine.TraceInfo{}, false, err
	}
	return out, true, nil
}

// traceInfos lists a peer's uploaded traces.
func (sc *shardClient) traceInfos(ctx context.Context, peer string) ([]engine.TraceInfo, error) {
	defer sc.observe("trace_list")()
	var out struct {
		Traces []engine.TraceInfo `json:"traces"`
	}
	if err := sc.doJSON(ctx, http.MethodGet, peer+"/v1/traces", nil, "", &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// traceContent downloads a trace's canonical binary encoding; found is
// false on a clean 404.
func (sc *shardClient) traceContent(ctx context.Context, peer, id string) ([]byte, bool, error) {
	defer sc.observe("trace_content")()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/traces/"+id+"/content", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := sc.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr httpapi.APIError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&apiErr)
		return nil, false, &statusError{Code: resp.StatusCode, Msg: apiErr.Error}
	}
	// Cap the download like every other read of untrusted bytes.
	blob, err := io.ReadAll(io.LimitReader(resp.Body, sc.maxForward+1))
	if err != nil {
		return nil, false, err
	}
	if int64(len(blob)) > sc.maxForward {
		return nil, false, fmt.Errorf("trace %s content from %s exceeds %d bytes", id, peer, sc.maxForward)
	}
	return blob, true, nil
}

// uploadTrace admits a canonical binary trace on a peer.
func (sc *shardClient) uploadTrace(ctx context.Context, peer string, blob []byte) (httpapi.UploadResponse, error) {
	defer sc.observe("trace_upload")()
	var out httpapi.UploadResponse
	err := sc.doJSON(ctx, http.MethodPost, peer+"/v1/traces", blob, "application/octet-stream", &out)
	return out, err
}

// spans fetches every span a node recorded under a trace ID — the
// coordinator's stitching read.
func (sc *shardClient) spans(ctx context.Context, peer, traceID string) ([]obs.Span, error) {
	defer sc.observe("spans")()
	var out httpapi.SpansResponse
	if err := sc.doJSON(ctx, http.MethodGet, peer+"/v1/spans/"+traceID, nil, "", &out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}
