package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one pass share a run id; parent is the id of the span that was
// open when this one began (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. The benchmark drives the program from
// one goroutine, so an open-span stack gives every span its parent. A nil
// *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	origin time.Time
	run    string
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named after the layer call it wraps and returns its
// id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: t.now(), End: -1})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// sum adds up the durations, in seconds, of the spans from id from on
// whose names start with prefix.
func (t *tracer) sum(from int, prefix string) float64 {
	var d int64
	for _, s := range t.spans[from:] {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.End - s.Start
		}
	}
	return float64(d) / 1e9
}

// durations lists the durations of the spans from id from on named name.
func (t *tracer) durations(from int, name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
