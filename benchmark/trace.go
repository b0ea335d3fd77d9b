package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one layer call as the traced run records it. Spans of one
// server request share Req; Parent is the span that caused this one.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Req      int64  `json:"req,omitempty"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// is the untraced run: every method is a no-op, so call sites do not
// branch on whether tracing is on.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(parent int64, name string, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Req: req,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// start opens a span whose end is filled in by end; used for the phase
// spans that parent the per-call ones.
func (t *tracer) start(parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, name, 0, now, now)
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime aggregates the spans that share a name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes derives, per span name, the summed duration and the summed
// self time: a span's duration minus the part of its interval that its
// child spans cover. Children that overlap one another (requests of
// concurrent connections under one phase span) are counted once.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		var covered, reach int64 = 0, s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.Total += time.Duration(s.EndNs - s.StartNs)
		a.Self += time.Duration(s.EndNs - s.StartNs - covered)
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
