package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nbticache/internal/obs"
)

// scrapeMetrics fetches /metrics as a scraper would and returns the
// raw exposition text.
func scrapeMetrics(t *testing.T, base string) []byte {
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
	return body
}

// scrapeUntil scrapes /metrics until every want substring appears,
// failing after a bounded wait, and returns that exposition. The
// middleware records a request's duration sample after its handler
// returns, which can be after the client has decoded the whole body,
// so a scrape right behind a request can precede its sample.
func scrapeUntil(t *testing.T, base string, want ...string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := scrapeMetrics(t, base)
		missing := false
		for _, w := range want {
			missing = missing || !bytes.Contains(body, []byte(w))
		}
		if !missing || time.Now().After(deadline) {
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lintExposition runs the obs conformance linter and enumerates the
// TYPE lines by type, failing the test on any violation.
func lintExposition(t *testing.T, body []byte) (histograms []string) {
	t.Helper()
	for _, err := range obs.Lint(bytes.NewReader(body)) {
		t.Errorf("exposition lint: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" && fields[3] == "histogram" {
			histograms = append(histograms, fields[2])
		}
	}
	return histograms
}

// TestMetricsConformance is the exposition-format gate for the node
// server: after real traffic (a completed sweep, an unmatched route,
// a scrape), /metrics must parse cleanly under the obs linter —
// no duplicate family blocks, HELP/TYPE before samples, cumulative
// monotone buckets — and carry the three node histogram families plus
// the key hand-mirrored series.
func TestMetricsConformance(t *testing.T) {
	ts, _ := testServer(t)

	// Drive traffic so every family has live samples: one full sweep
	// (job phases, blob ops, HTTP routes) plus a 404 for the unmatched
	// route label.
	body := `{"benches":["sha","gsme"],"banks":[2,4]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(time.Minute)
	for {
		var sweep SweepResponse
		getJSON(t, ts.URL+"/v1/sweeps/"+sub.ID, &sweep)
		if sweep.Status.State == "done" {
			break
		}
		if sweep.Status.State != "running" || time.Now().After(deadline) {
			t.Fatalf("sweep did not complete: %+v", sweep.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/no/such/route", nil); code != http.StatusNotFound {
		t.Fatalf("unmatched route status %d", code)
	}

	sweepRoute, unmatchedRoute := `route="GET /v1/sweeps/{id}"`, `route="unmatched"`
	exposition := scrapeUntil(t, ts.URL, sweepRoute, unmatchedRoute)
	histograms := lintExposition(t, exposition)

	if len(histograms) < 3 {
		t.Fatalf("node /metrics exposes %d histogram families (%v), want >= 3", len(histograms), histograms)
	}
	text := string(exposition)
	for _, want := range []string{
		"nbtiserved_job_phase_seconds", "nbtiserved_blob_op_seconds", "nbtiserved_http_request_seconds",
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
	// The phase histogram saw every phase of every job.
	for _, phase := range []string{"queue", "resolve", "simulate", "project", "persist"} {
		if !strings.Contains(text, `nbtiserved_job_phase_seconds_count{phase="`+phase+`"}`) {
			t.Errorf("no phase=%s samples in job-phase histogram", phase)
		}
	}
	// Key mirrored series and the registry gauges survived the registry
	// migration under their historical names.
	for _, series := range []string{
		"nbtiserved_workers ", "nbtiserved_sweeps_total ", "nbtiserved_jobs_completed_total ",
		"nbtiserved_cache_hits_total ", "nbtiserved_sweeps_retained ", "nbtiserved_sweeps_evicted_total ",
	} {
		if !strings.Contains(text, "\n"+series) {
			t.Errorf("series %q missing from /metrics", strings.TrimSpace(series))
		}
	}
	// The middleware labeled both a real route and the 404 fallback.
	if !strings.Contains(text, sweepRoute) {
		t.Error("no request-duration samples for GET /v1/sweeps/{id}")
	}
	if !strings.Contains(text, unmatchedRoute) {
		t.Error("no request-duration samples for the unmatched-route label")
	}

	// A second scrape must still lint: OnCollect refreshes are
	// idempotent, re-registration never duplicates a family block.
	lintExposition(t, scrapeMetrics(t, ts.URL))
}
