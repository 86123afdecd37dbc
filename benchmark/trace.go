package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, kept in memory until exit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(op, parent int, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanner opens spans under one op's root span.
type spanner struct {
	tr   *tracer
	op   int
	root int
}

// opSpan opens the root span of op i.
func (t *tracer) opSpan(i int) spanner {
	if t == nil {
		return spanner{}
	}
	return spanner{tr: t, op: i, root: t.start(i, 0, "op")}
}

func (s spanner) finish() {
	if s.tr != nil {
		s.tr.end(s.root)
	}
}

// span opens a child span of the op and returns the function closing it.
func (s spanner) span(name string) func() {
	if s.tr == nil {
		return func() {}
	}
	id := s.tr.start(s.op, s.root, name)
	return func() { s.tr.end(id) }
}

// selfTimes sums each span name's self time: its duration minus the
// part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID]))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, end int64
	for _, s := range spans {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanLayers are the span names; self_s.<name> is reported for each.
var spanLayers = []string{"op", "compile", "interp", "sched", "explore", "campaign", "serve"}

// addSpanMetrics reports each layer's self time per op.
func addSpanMetrics(m metrics, t *tracer, ops int) {
	self := t.selfTimes()
	for _, name := range spanLayers {
		m.set("self_s."+name, per(self[name].Seconds(), ops), "s")
	}
	m.set("trace.spans", float64(t.len()), "count")
}
