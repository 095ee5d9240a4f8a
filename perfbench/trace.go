package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside
// the program: around a call into a layer's public function, or between
// two of the program's public events.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_ms"` // since the trace epoch
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.epoch)) / 1e6 }

// add records a span and returns its ID (0 when t is nil).
func (t *tracer) add(parent int, name, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: t.ms(start), End: t.ms(end)})
	return id
}

// begin opens a span at the current time; end closes it. Children may be
// added under its ID in between.
func (t *tracer) begin(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, "", now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ms(time.Now())
}

// time runs f inside a span and returns its duration in milliseconds.
func (t *tracer) time(parent int, name string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.add(parent, name, "", start, end)
	return float64(end.Sub(start)) / 1e6
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children clipped to the parent, overlaps counted
// once), keyed by span ID.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, 0.0
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans and their per-name self-time totals as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Spans      []span             `json:"spans"`
		SelfByName map[string]float64 `json:"self_ms_by_name"`
	}{t.spans, selfByName(t.spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
