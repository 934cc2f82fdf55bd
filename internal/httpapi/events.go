// Sweep completion streaming: GET /v1/sweeps/{id}/events serves a
// sweep's per-job completions as Server-Sent Events the moment they
// merge, replacing status polling for latency-sensitive consumers. The
// cluster coordinator consumes this stream shard-side — it is the
// coordinator's only dataplane — and re-serves the same format
// client-side.
//
// Wire format — standard SSE framing, three frame kinds:
//
//	id: <seq>
//	event: job
//	data: {"seq":N,"job":{...engine.JobResult...}}
//
//	event: done
//	data: {...engine.SweepStatus...}
//
//	: hb
//
// Every `job` frame carries the merged-count cursor as its SSE id: a
// client that reconnects with `Last-Event-ID: N` (or `?from=N`) resumes
// at cursor N and is re-sent every completion it missed, in merge
// order. The `done` frame is terminal; `: hb` comments are heartbeats
// that keep idle proxies from reaping a quiet stream. The feed ends
// after `done`, after which the final results are one GET
// /v1/sweeps/{id} away.
package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"nbticache/internal/engine"
	"nbticache/internal/obs"
)

// DefaultEventHeartbeat is the idle-stream heartbeat cadence.
const DefaultEventHeartbeat = 15 * time.Second

// maxEventLine bounds one SSE line on the reading side — at the
// largest job-result payload a node admits (putJob caps result bodies
// at 8 MiB), so a corrupt or hostile stream cannot grow an unbounded
// buffer.
const maxEventLine = 8 << 20

// StreamMetrics counts the streaming surface's activity; handles are
// nil-safe so a telemetry-free server streams unchanged.
type StreamMetrics struct {
	sent    *obs.Counter
	resumed *obs.Counter
}

// NewStreamMetrics registers the sweep-event series on reg (nil reg
// returns no-op handles).
func NewStreamMetrics(reg *obs.Registry) *StreamMetrics {
	return &StreamMetrics{
		sent:    reg.Counter("nbtiserved_sweep_events_sent_total", "Job completion events written to sweep event streams."),
		resumed: reg.Counter("nbtiserved_sweep_events_resumed_total", "Sweep event streams resumed from a Last-Event-ID cursor."),
	}
}

// eventSent counts one streamed completion; nil-safe.
func (m *StreamMetrics) eventSent() {
	if m == nil {
		return
	}
	m.sent.Inc()
}

// streamResumed counts one cursor resume; nil-safe.
func (m *StreamMetrics) streamResumed() {
	if m == nil {
		return
	}
	m.resumed.Inc()
}

// resumeCursor extracts the client's resume position: the SSE
// `Last-Event-ID` header (what browsers replay on reconnect) or the
// `?from=` query for clients that want to start mid-log explicitly.
// Absent or malformed cursors start from the beginning, per the SSE
// convention of ignoring an unparseable last ID.
func resumeCursor(r *http.Request) int {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("from")
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// EncodeJobFrame renders one completion as its SSE frame.
func EncodeJobFrame(ev engine.SweepEvent) []byte {
	data, _ := json.Marshal(ev) // engine result types always marshal
	var b bytes.Buffer
	fmt.Fprintf(&b, "id: %d\nevent: job\ndata: %s\n\n", ev.Seq, data)
	return b.Bytes()
}

// EncodeDoneFrame renders the terminal status frame.
func EncodeDoneFrame(st engine.SweepStatus) []byte {
	data, _ := json.Marshal(st)
	var b bytes.Buffer
	fmt.Fprintf(&b, "event: done\ndata: %s\n\n", data)
	return b.Bytes()
}

// heartbeatFrame is the SSE comment that keeps idle streams alive.
var heartbeatFrame = []byte(": hb\n\n")

// StreamSweep serves h's completion feed on w until the sweep finishes
// or the client disconnects. Registry.Mount serves it for the node and
// the coordinator alike, so the two streaming surfaces speak one format.
func StreamSweep(w http.ResponseWriter, r *http.Request, h *engine.Handle, heartbeat time.Duration, met *StreamMetrics) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, "response writer cannot stream (no flush support)")
		return
	}
	if heartbeat <= 0 {
		heartbeat = DefaultEventHeartbeat
	}
	cursor := resumeCursor(r)
	if cursor > 0 {
		met.streamResumed()
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Proxies that buffer responses (nginx) would defeat the push; this
	// is the conventional opt-out.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		backlog, live, cancel := h.EventsFrom(cursor)
		for _, ev := range backlog {
			if _, err := w.Write(EncodeJobFrame(ev)); err != nil {
				cancel()
				return
			}
			fl.Flush()
			cursor = ev.Seq
			met.eventSent()
		}
		open := true
		for open {
			select {
			case ev, more := <-live:
				if !more {
					open = false
					break
				}
				if _, err := w.Write(EncodeJobFrame(ev)); err != nil {
					cancel()
					return
				}
				fl.Flush()
				cursor = ev.Seq
				met.eventSent()
			case <-hb.C:
				if _, err := w.Write(heartbeatFrame); err != nil {
					cancel()
					return
				}
				fl.Flush()
			case <-r.Context().Done():
				cancel()
				return
			}
		}
		cancel()
		// The live channel closed: either the sweep is over or this
		// consumer lagged past its buffer and was coalesced. Resubscribing
		// from the cursor resyncs a laggard (the backlog replays what it
		// missed); a finished sweep gets its terminal frame.
		if st := h.Status(); st.State != "running" {
			if _, err := w.Write(EncodeDoneFrame(st)); err != nil {
				return
			}
			fl.Flush()
			return
		}
	}
}

// ErrEventTooLarge reports an SSE line exceeding the reader's bound.
var ErrEventTooLarge = errors.New("httpapi: sweep event line exceeds size bound")

// EventFrame is one decoded SSE frame: a `job` completion, the `done`
// terminal status, or any unrecognised event a newer server might send
// (consumers skip those by name, which is what makes the format
// forward-extensible).
type EventFrame struct {
	// Event is the SSE event name ("job", "done"; empty defaults to the
	// SSE "message" type, which this protocol never sends).
	Event string
	// ID is the frame's cursor (the `id:` field); HasID distinguishes a
	// genuine 0 from an absent field.
	ID    int
	HasID bool
	// Data is the raw data payload (multi-line data joined with \n).
	Data []byte
}

// JobEvent decodes a `job` frame's payload.
func (f EventFrame) JobEvent() (engine.SweepEvent, error) {
	var ev engine.SweepEvent
	if f.Event != "job" {
		return ev, fmt.Errorf("httpapi: frame %q is not a job event", f.Event)
	}
	if err := json.Unmarshal(f.Data, &ev); err != nil {
		return ev, fmt.Errorf("httpapi: bad job event payload: %w", err)
	}
	return ev, nil
}

// DoneStatus decodes a `done` frame's payload.
func (f EventFrame) DoneStatus() (engine.SweepStatus, error) {
	var st engine.SweepStatus
	if f.Event != "done" {
		return st, fmt.Errorf("httpapi: frame %q is not a done event", f.Event)
	}
	if err := json.Unmarshal(f.Data, &st); err != nil {
		return st, fmt.Errorf("httpapi: bad done event payload: %w", err)
	}
	return st, nil
}

// EventReader incrementally decodes an SSE sweep-event stream. It
// tolerates arbitrary garbage without panicking or buffering more than
// maxEventLine per line (untrusted network input), skips heartbeat
// comments and unknown fields, and surfaces each complete frame.
type EventReader struct {
	br *bufio.Reader
	// OnActivity, when set, fires once per line read — heartbeats and
	// comments included — so a consumer can arm a stall watchdog on raw
	// stream liveness rather than frame arrival.
	OnActivity func()
}

// NewEventReader decodes the SSE stream on r.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{br: bufio.NewReader(r)}
}

// readLine reads one \n-terminated line (without the terminator,
// tolerating \r\n), bounded by maxEventLine.
func (er *EventReader) readLine() ([]byte, error) {
	var line []byte
	for {
		chunk, err := er.br.ReadSlice('\n')
		// ReadSlice hands back what it has alongside bufio.ErrBufferFull;
		// accumulate across fills but keep the total bounded.
		if len(line)+len(chunk) > maxEventLine {
			return nil, ErrEventTooLarge
		}
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if errors.Is(err, io.EOF) && len(line) > 0 {
			// A final unterminated line still parses; the missing blank
			// line after it means the frame never dispatches, which is the
			// truncation signal.
			break
		}
		return nil, err
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	line = bytes.TrimSuffix(line, []byte("\r"))
	if er.OnActivity != nil {
		er.OnActivity()
	}
	return line, nil
}

// Next returns the next complete frame. io.EOF reports a stream that
// ended cleanly between frames; io.ErrUnexpectedEOF one severed
// mid-frame.
func (er *EventReader) Next() (EventFrame, error) {
	var f EventFrame
	have := false
	for {
		line, err := er.readLine()
		if err != nil {
			if errors.Is(err, io.EOF) && have {
				return EventFrame{}, io.ErrUnexpectedEOF
			}
			return EventFrame{}, err
		}
		switch {
		case len(line) == 0:
			if have {
				return f, nil
			}
		case line[0] == ':':
			// comment / heartbeat
		default:
			name, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(name) {
			case "id":
				if n, err := strconv.Atoi(string(value)); err == nil && n >= 0 {
					f.ID, f.HasID = n, true
					have = true
				}
			case "event":
				f.Event = string(value)
				have = true
			case "data":
				if len(f.Data) > 0 {
					f.Data = append(f.Data, '\n')
				}
				f.Data = append(f.Data, value...)
				have = true
			}
		}
	}
}
