package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the id (index+1) of the span that caused it, 0 for a root;
// Req ties the spans of one request together (the run's content key, or
// the sweep/exploration id).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     string `json:"req,omitempty"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, so untraced passes run the same code without the cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id for end and for children.
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Req: req})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval its children cover. Children may
// overlap one another (two connections polling at once) and may stick
// out of the parent; only the union of their intervals, clipped to the
// parent, is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
		sort.Slice(kids[i], func(a, b int) bool { return spans[kids[i][a]].StartNS < spans[kids[i][b]].StartNS })
		covered := s.StartNS // everything before this instant is already subtracted
		for _, k := range kids[i] {
			lo, hi := max(spans[k].StartNS, covered), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTotals sums durations, self times and counts by span name, in
// seconds.
type spanTotals struct {
	dur, self map[string]float64
	count     map[string]int
}

func totals(spans []span) spanTotals {
	t := spanTotals{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		t.dur[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
		t.self[s.Name] += float64(self[i]) / 1e9
		t.count[s.Name]++
	}
	return t
}
