package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. Spans of one op share OpID; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code without the cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// onOddCycles traces every second seed cycle of a measured loop, so the
// traced and the untraced ops it compares ran interleaved, under the
// same drift. A nil tracer yields a plan that never traces.
func (t *tracer) onOddCycles() func(cycle int) *tracer {
	return func(cycle int) *tracer {
		if cycle%2 == 1 {
			return t
		}
		return nil
	}
}

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfPerOp returns, for each span name, the self time in ms that every
// op spent under it: a span's duration minus the part its direct children
// cover, added up over the op's spans of that name. Callers take the
// median over ops, which one stalled span does not move.
func selfPerOp(spans []span) map[string][]float64 {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		op   int
	}
	byOp := make(map[key]int64)
	for _, s := range spans {
		byOp[key{s.Name, s.OpID}] += s.End - s.Start - child[s.ID]
	}
	out := make(map[string][]float64)
	for k, ns := range byOp {
		out[k.name] = append(out[k.name], float64(ns)/1e6)
	}
	return out
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// durations returns the durations of every span called name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON under dir (created if missing).
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
