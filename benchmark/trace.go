package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one window share Window; Parent is the index of the
// enclosing span (-1 at the top).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Window  int    `json:"window"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a nil check and nothing else, so the
// end-to-end metrics are measured with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, window int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, Window: window})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// add records a span whose endpoints were taken elsewhere (serve.hop ends on
// the receiving goroutine, so it is assembled after the phase).
func (t *tracer) add(name string, start, end time.Time, parent, window int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)), Parent: parent, Window: window})
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, stamp stamp) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"stamp": stamp, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
