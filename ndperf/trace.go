package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; Parent links a span to the one that caused it (0 for an op's root).
// A mark (a point finishing inside RunSuite, an SSE point event) is a span
// whose End equals its Start.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id; finish closes it.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark records an instant event under parent.
func (t *tracer) mark(name string, parent, op int64) {
	if t == nil {
		return
	}
	t.finish(t.begin(name, parent, op))
}

// selfTimes sums, per span name, the span's duration minus the part of it
// covered by its children (the union of their intervals, clipped to the
// parent), in milliseconds, and counts the spans.
func (t *tracer) selfTimes() (map[string]float64, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max64(k.Start, cur), min64(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
		count[s.Name]++
	}
	return self, count
}

// report prints the per-layer self-time table.
func (t *tracer) report() string {
	self, count := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", "span", "n", "self_ms", "self_ms/n")
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %8d %12.3f %12.4f\n", n, count[n], self[n], self[n]/float64(count[n]))
	}
	return b.String()
}

// write dumps every span as JSON, once, at the end of the run.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
