package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one job share Job; Parent links a
// span to the span that caused it (0: a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Job    string    `json:"job,omitempty"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`

	// Filled in by write: offsets from the tracer's origin, duration,
	// and self time (duration minus the part of it child spans cover).
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced mode: every method is a no-op returning span id 0.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere (for
// example the Started/Finished times of a daemon's job record).
func (t *tracer) record(name string, parent int, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: start, End: end})
	return len(t.spans)
}

// setJob labels an open span with the job it belongs to, once known.
func (t *tracer) setJob(id int, job string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Job = job
	t.mu.Unlock()
}

// selfTimes fills in the derived fields of every span: a span's self
// time is its duration minus the union of its children's intervals
// clipped to it. Spans never closed count as ending at their start.
func (t *tracer) selfTimes() {
	children := map[int][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End.Before(s.Start) {
			s.End = s.Start
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.StartUS = micros(s.Start.Sub(t.origin))
		s.DurUS = micros(s.End.Sub(s.Start))
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, ci := range children[s.ID] {
			c := t.spans[ci]
			a, b := c.Start, c.End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a.After(curB):
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			case v.b.After(curB):
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB.Sub(curA)
		}
		s.SelfUS = s.DurUS - micros(covered)
	}
}

// layerTotal sums duration and self time over the spans of one name.
type layerTotal struct {
	Count  int     `json:"count"`
	DurUS  float64 `json:"dur_us"`
	SelfUS float64 `json:"self_us"`
}

// write stores the spans, their per-name totals, and the run's
// provenance as one JSON document.
func (t *tracer) write(path string, prov provenance) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	totals := map[string]*layerTotal{}
	for _, s := range t.spans {
		lt := totals[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			totals[s.Name] = lt
		}
		lt.Count++
		lt.DurUS += s.DurUS
		lt.SelfUS += s.SelfUS
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance             `json:"provenance"`
		Totals     map[string]*layerTotal `json:"totals"`
		Spans      []span                 `json:"spans"`
	}{prov, totals, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
