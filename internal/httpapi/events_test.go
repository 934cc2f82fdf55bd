package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"nbticache/internal/engine"
)

// TestEventFrameCodec pins the SSE wire format both ways: encoded job
// and done frames decode back to themselves through EventReader, the
// cursor id round-trips, heartbeat comments and unknown fields are
// skipped, and a clean end-of-stream is io.EOF.
func TestEventFrameCodec(t *testing.T) {
	ev := engine.SweepEvent{Seq: 7, Job: &engine.JobResult{ID: "job-0123456789abcdef", Err: "boom"}}
	st := engine.SweepStatus{ID: "sweep-1", State: "done", Total: 7, Completed: 6, Failed: 1}

	var wire bytes.Buffer
	wire.Write(EncodeJobFrame(ev))
	wire.Write([]byte(": hb\n\n"))
	wire.WriteString("retry: 2000\nunknownfield: x\n\n") // unknown fields, no frame content we use
	wire.Write(EncodeDoneFrame(st))

	er := NewEventReader(&wire)
	f, err := er.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasID || f.ID != ev.Seq {
		t.Errorf("job frame id = %d (has %v), want %d", f.ID, f.HasID, ev.Seq)
	}
	got, err := f.JobEvent()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != ev.Seq || got.Job == nil || got.Job.ID != ev.Job.ID || got.Job.Err != ev.Job.Err {
		t.Errorf("job event round-trip: got %+v, want %+v", got, ev)
	}

	// The heartbeat comment and the unknown-fields-only frame are both
	// skipped (no id/event/data means nothing to surface): the next
	// frame out is the done frame.
	f, err = er.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotSt, err := f.DoneStatus()
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != st {
		t.Errorf("done status round-trip: got %+v, want %+v", gotSt, st)
	}
	if _, err := er.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}

// TestEventReaderSeveredMidFrame pins the truncation signal: a stream
// cut after a frame's fields but before its blank line is
// io.ErrUnexpectedEOF, never a silently-dispatched partial frame.
func TestEventReaderSeveredMidFrame(t *testing.T) {
	er := NewEventReader(strings.NewReader("id: 3\nevent: job\ndata: {\"seq\":3"))
	if _, err := er.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("severed mid-frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestEventReaderLineBound pins the untrusted-input bound: a single
// line larger than maxEventLine errors instead of growing the buffer.
func TestEventReaderLineBound(t *testing.T) {
	huge := io.MultiReader(strings.NewReader("data: "), bytes.NewReader(bytes.Repeat([]byte("x"), maxEventLine)))
	er := NewEventReader(huge)
	if _, err := er.Next(); !errors.Is(err, ErrEventTooLarge) {
		t.Errorf("oversized line: %v, want ErrEventTooLarge", err)
	}
}

// openEvents opens a sweep event stream with an optional resume cursor.
func openEvents(t *testing.T, base, id string, from int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(from))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainEvents reads frames until the done frame, asserting the job
// cursors are dense from `from`+1, and returns the terminal status and
// the last cursor seen.
func drainEvents(t *testing.T, body io.Reader, from int) (engine.SweepStatus, int) {
	t.Helper()
	er := NewEventReader(body)
	cursor := from
	for {
		f, err := er.Next()
		if err != nil {
			t.Fatalf("event stream at cursor %d: %v", cursor, err)
		}
		switch f.Event {
		case "job":
			ev, err := f.JobEvent()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Seq != cursor+1 {
				t.Fatalf("seq %d after cursor %d, want dense", ev.Seq, cursor)
			}
			if !f.HasID || f.ID != ev.Seq {
				t.Fatalf("frame id %d (has %v) disagrees with seq %d", f.ID, f.HasID, ev.Seq)
			}
			if ev.Job == nil || ev.Job.ID == "" {
				t.Fatalf("job frame %d carries no result", ev.Seq)
			}
			cursor = ev.Seq
		case "done":
			st, err := f.DoneStatus()
			if err != nil {
				t.Fatal(err)
			}
			return st, cursor
		}
	}
}

// TestSweepEventStream is the node streaming acceptance path: a sweep's
// events route pushes every completion exactly once in merge order,
// terminates with the final status, resumes from a Last-Event-ID cursor
// replaying only what was missed, and counts both on /metrics.
func TestSweepEventStream(t *testing.T) {
	ts, _ := testServer(t)

	body := `{"name":"events","benches":["sha","gsme"],"banks":[2,4]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Subscribe immediately — some completions arrive as backlog, the
	// rest live; the reader cannot tell and should not.
	sresp := openEvents(t, ts.URL, sub.ID, 0)
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	st, cursor := drainEvents(t, sresp.Body, 0)
	if st.State != "done" || st.Failed != 0 || cursor != sub.Total {
		t.Fatalf("streamed %d/%d completions, terminal %+v", cursor, sub.Total, st)
	}

	// Resume mid-log: only the missed tail replays, then done again.
	from := sub.Total / 2
	rresp := openEvents(t, ts.URL, sub.ID, from)
	defer rresp.Body.Close()
	st, cursor = drainEvents(t, rresp.Body, from)
	if st.State != "done" || cursor != sub.Total {
		t.Fatalf("resume from %d replayed to cursor %d, terminal %+v", from, cursor, st)
	}

	// ?from= is the header's query twin.
	qresp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/events?from=" + strconv.Itoa(sub.Total))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if st, cursor = drainEvents(t, qresp.Body, sub.Total); st.State != "done" || cursor != sub.Total {
		t.Fatalf("query resume replayed to %d, terminal %+v", cursor, st)
	}

	text := string(scrapeMetrics(t, ts.URL))
	wantSent := sub.Total + (sub.Total - from) // full stream + resumed tail + empty resume
	if !strings.Contains(text, "nbtiserved_sweep_events_sent_total "+strconv.Itoa(wantSent)) {
		t.Errorf("metrics: want nbtiserved_sweep_events_sent_total %d in:\n%s", wantSent, text)
	}
	if !strings.Contains(text, "nbtiserved_sweep_events_resumed_total 2") {
		t.Errorf("metrics: want nbtiserved_sweep_events_resumed_total 2 in:\n%s", text)
	}

	if code := getJSON(t, ts.URL+"/v1/sweeps/sweep-999/events", nil); code != http.StatusNotFound {
		t.Errorf("unknown sweep stream status %d, want 404", code)
	}
}

// FuzzSweepEvents throws arbitrary bytes at the stream decoder: it must
// never panic, never buffer beyond the line bound, and every frame it
// does surface must be internally consistent. Seeds cover the real wire
// format so the corpus mutates from valid frames, which also keeps the
// encode→decode round-trip under fuzz.
func FuzzSweepEvents(f *testing.F) {
	ev := engine.SweepEvent{Seq: 1, Job: &engine.JobResult{ID: "job-0000000000000001"}}
	f.Add(EncodeJobFrame(ev))
	f.Add(EncodeDoneFrame(engine.SweepStatus{ID: "sweep-1", State: "done", Total: 1, Completed: 1}))
	f.Add([]byte(": hb\n\n"))
	f.Add([]byte("id: 3\nevent: job\ndata: {\"seq\":3}\n\ndata: tail"))
	f.Add([]byte("id: -1\nid: 99999999999999999999\nevent: job\n\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		er := NewEventReader(bytes.NewReader(in))
		for {
			fr, err := er.Next()
			if err != nil {
				return // EOF, ErrUnexpectedEOF, ErrEventTooLarge — all fine
			}
			if fr.HasID && fr.ID < 0 {
				t.Fatalf("decoder surfaced a negative cursor: %+v", fr)
			}
			// Decoders must classify strictly and never panic on the payload.
			if jev, err := fr.JobEvent(); err == nil {
				if fr.Event != "job" {
					t.Fatalf("JobEvent accepted a %q frame", fr.Event)
				}
				// A decoded job frame re-encodes to a frame that decodes equal:
				// the resume path depends on this round-trip.
				rt := NewEventReader(bytes.NewReader(EncodeJobFrame(jev)))
				fr2, err := rt.Next()
				if err != nil {
					t.Fatalf("re-encoded job frame unreadable: %v", err)
				}
				jev2, err := fr2.JobEvent()
				if err != nil {
					t.Fatalf("re-encoded job frame undecodable: %v", err)
				}
				if jev2.Seq != jev.Seq || !fr2.HasID || fr2.ID != jev.Seq {
					t.Fatalf("job frame round-trip: %+v -> %+v", jev, jev2)
				}
			}
			if _, err := fr.DoneStatus(); err == nil && fr.Event != "done" {
				t.Fatalf("DoneStatus accepted a %q frame", fr.Event)
			}
		}
	})
}
