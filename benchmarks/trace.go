package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the ID of
// the span that caused it (-1 for a root); spans of one repetition share Rep.
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Frame    int    `json:"frame"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed repetitions pay one nil check per call site.
type tracer struct {
	workload string // stamped on new spans; set before each workload runs
	origin   time.Time

	mu    sync.Mutex // the two fleet producers record concurrently
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, rep, frame int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Rep: rep, Frame: frame, Start: time.Since(t.origin).Nanoseconds(),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// selfTimeNs is a span's duration minus the part of it its children cover.
// Children may overlap each other (the two fleet producers run under one
// repetition span), so the covered part is the union of their intervals,
// clipped to the parent.
func selfTimeNs(spans []span, id int) int64 {
	p := spans[id]
	var kids []span
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, p.End)
		if end > start {
			covered += end - start
			edge = end
		}
	}
	return p.End - p.Start - covered
}

// write writes every recorded span to dir/trace.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
