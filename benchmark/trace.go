package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span
// that caused this one (-1 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer records spans in memory from the benchmark's own call sites;
// nothing inside the program is instrumented. begin/end nest on the
// driving goroutine; leaf may be called from any goroutine (the parallel
// engine's workers) and hangs its span under whatever the driving
// goroutine has open, which is the apply that dispatched the worker.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) begin(name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Name: name, Workload: t.workload, Start: now})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished span under the given parent; underOpen hangs
// it under the span the driving goroutine has open.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == underOpen {
		parent = t.top()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

const underOpen = -2

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (concurrent workers), so the covered part is the union of the
// child intervals clipped to the parent, not their sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// byName sums durations, self times and counts of the spans with each
// name.
type spanTotals struct {
	Dur, Self int64
	N         int
}

func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.Dur += s.End - s.Start
		t.Self += self[i]
		t.N++
		out[s.Name] = t
	}
	return out
}

func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
