package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
)

// client is the benchmark's single closed-loop client: one goroutine,
// one request in flight, at most two connections.
type client struct {
	hc   *http.Client
	base string
	// requests counts HTTP requests sent; non2xx the ones answered with
	// another status (each is a failed attempt).
	requests, non2xx int
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request; a non-2xx answer is returned as an error with
// the body closed.
func (c *client) do(method, path, ctype string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	c.requests++
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.non2xx++
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// doJSON sends one request and decodes a JSON answer into out.
func (c *client) doJSON(method, path, ctype string, body []byte, out any) error {
	resp, err := c.do(method, path, ctype, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// upload posts one binary trace and returns its content address.
func (c *client) upload(body []byte) (string, error) {
	var up httpapi.UploadResponse
	if err := c.doJSON(http.MethodPost, "/v1/traces", "application/octet-stream", body, &up); err != nil {
		return "", err
	}
	return up.ID, nil
}

func (c *client) deleteTrace(id string) error {
	var out map[string]any
	return c.doJSON(http.MethodDelete, "/v1/traces/"+id, "", nil, &out)
}

// servedJob is one job frame as the client received it. run and proj
// are the raw JSON the server encoded, so comparisons are exact.
type servedJob struct {
	// label names the job's input (a bench name, or t<i> for the i-th
	// uploaded trace); with banks and policy it keys the job stably
	// across rounds.
	label     string
	banks     int
	policy    string
	run, proj json.RawMessage
	timing    *engine.JobTiming
	failed    bool
}

func (j servedJob) key() string { return fmt.Sprintf("%s/%d/%s", j.label, j.banks, j.policy) }

// digest hashes the simulated statistics of one job: the run without
// its trace name (uploads rename the trace every round) and the
// projection.
func (j servedJob) digest() string {
	h := sha256.New()
	run := []byte(j.run)
	if i := bytes.Index(run, []byte(`,"Banks":`)); i >= 0 {
		run = run[i:]
	}
	h.Write(run)
	h.Write(j.proj)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// sweepOut is one sweep as the client saw it. Times are milliseconds
// from start, the moment the POST was sent.
type sweepOut struct {
	start                                    time.Time
	submitMs, streamOpenMs, firstMs, sweepMs float64
	jobMs                                    []float64
	jobs                                     []servedJob
	failed                                   int // failed or cancelled job frames
	raw                                      []byte
}

// wireEvent is the part of a job frame the client reads.
type wireEvent struct {
	Job struct {
		Spec       engine.JobSpec    `json:"spec"`
		Run        json.RawMessage   `json:"run"`
		Projection json.RawMessage   `json:"projection"`
		Err        string            `json:"error"`
		Canceled   bool              `json:"canceled"`
		Timing     *engine.JobTiming `json:"timing"`
	} `json:"job"`
}

// sweep submits spec, reads its event stream to the done frame and
// returns what arrived. labels names uploaded traces by input index so
// job keys survive renaming; capture keeps the raw stream bytes.
func (c *client) sweep(spec engine.SweepSpec, labels map[string]string, capture bool) (*sweepOut, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out := &sweepOut{start: start}
	var sub httpapi.SubmitResponse
	if err := c.doJSON(http.MethodPost, "/v1/sweeps", "application/json", body, &sub); err != nil {
		return nil, err
	}
	out.submitMs = msSince(start)
	resp, err := c.do(http.MethodGet, "/v1/sweeps/"+sub.ID+"/events", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out.streamOpenMs = msSince(start) - out.submitMs
	var src io.Reader = resp.Body
	var buf bytes.Buffer
	if capture {
		src = io.TeeReader(resp.Body, &buf)
	}
	er := httpapi.NewEventReader(src)
	for {
		f, err := er.Next()
		if err != nil {
			return nil, fmt.Errorf("sweep %s events: %w", sub.ID, err)
		}
		switch f.Event {
		case "job":
			t := msSince(start)
			j, err := decodeJob(f.Data, labels)
			if err != nil {
				return nil, err
			}
			if len(out.jobs) == 0 {
				out.firstMs = t
			}
			if j.failed {
				out.failed++
			}
			out.jobMs = append(out.jobMs, t)
			out.jobs = append(out.jobs, j)
		case "done":
			out.sweepMs = msSince(start)
			st, err := f.DoneStatus()
			if err != nil {
				return nil, err
			}
			if st.State != "done" || st.Total != len(out.jobs) || len(out.jobs) != sub.Total {
				return nil, fmt.Errorf("sweep %s ended %s with %d of %d job frames", sub.ID, st.State, len(out.jobs), sub.Total)
			}
			// The server ends the stream after done; reading to EOF lets
			// the connection go back to the pool.
			_, _ = io.Copy(io.Discard, src)
			out.raw = buf.Bytes()
			return out, nil
		}
	}
}

func decodeJob(data []byte, labels map[string]string) (servedJob, error) {
	var ev wireEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		return servedJob{}, fmt.Errorf("bad job frame: %w", err)
	}
	sp := ev.Job.Spec
	label := sp.Bench
	if sp.TraceID != "" {
		label = labels[sp.TraceID]
	}
	j := servedJob{
		label:  label,
		banks:  sp.Banks,
		policy: sp.Policy,
		run:    ev.Job.Run,
		proj:   ev.Job.Projection,
		timing: ev.Job.Timing,
		failed: ev.Job.Err != "" || ev.Job.Canceled || ev.Job.Run == nil,
	}
	return j, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
