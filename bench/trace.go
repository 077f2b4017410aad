package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call from the benchmark into a layer's public
// functions: which layer and function, when it started and ended
// (nanoseconds since the trace began), the span that caused it, and
// the counts read at that boundary (bytes moved, Stats() deltas). The
// spans of one pass or request share Op, the ID of their root span.
// Spans are recorded from the benchmark's own files only; the program
// under test is not instrumented.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = root
	Op     int                `json:"op"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span. A nil *spanRef is the parent of root spans
// and what a nil tracer hands out.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) start(parent *spanRef, layer, name string) *spanRef {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := span{ID: id, Op: id, Layer: layer, Name: name, Start: now}
	if parent != nil {
		s.Parent = parent.id
		s.Op = t.spans[parent.id-1].Op
	}
	t.spans = append(t.spans, s)
	return &spanRef{t, id}
}

// end closes the span and attaches counts given as name, value pairs.
func (r *spanRef) end(counts ...any) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	s := &r.t.spans[r.id-1]
	s.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]float64{}
		}
		s.Counts[counts[i].(string)] = toFloat(counts[i+1])
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	case time.Duration:
		return float64(x)
	}
	panic("bench: unsupported count type")
}

// named returns the finished spans called layer.name.
func (t *tracer) named(layer, name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children that overlap
// (concurrent callers under one parent) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelfTimes sums self time by layer.name over all spans.
func layerSelfTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer+"."+s.Name] += self[s.ID]
	}
	return out
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
