package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Spans of one
// replayed round share Round; Parent is the enclosing span's ID (0 for
// a round's root). N counts the work the call did: accesses for trace
// and kernel calls, frames, jobs or blobs elsewhere.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Round  int     `json:"round"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the replay began
	End    float64 `json:"end_us"`
	N      int64   `json:"n,omitempty"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

// tracer keeps spans in memory for the whole replay; they are written
// once, at the end. With on false (or a nil tracer) every call runs
// untimed, which is how the replay measures its own overhead.
type tracer struct {
	on    bool
	epoch time.Time
	round int
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do times fn as a span named name under parent.
func (t *tracer) do(parent int, name string, n int64, fn func() error) error {
	return t.span(parent, name, n, func(int) error { return fn() })
}

// span times fn as a span and hands fn the span's ID, so fn can record
// children under it. Safe for concurrent use.
func (t *tracer) span(parent int, name string, n int64, fn func(id int) error) error {
	if t == nil || !t.on {
		return fn(0)
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	err := fn(id)
	t.record(id, parent, name, start, time.Now(), n)
	return err
}

// add records a span whose bounds were measured elsewhere (the client
// times a request's phases itself).
func (t *tracer) add(parent int, name string, start, end time.Time, n int64) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.record(id, parent, name, start, end, n)
}

func (t *tracer) record(id, parent int, name string, start, end time.Time, n int64) {
	s := span{
		ID: id, Parent: parent, Round: t.round, Name: name, N: n,
		Start: float64(start.Sub(t.epoch)) / 1e3,
		End:   float64(end.Sub(t.epoch)) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeSpans writes the replay's spans as one JSON document.
func writeSpans(path, workload string, spans []span) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
