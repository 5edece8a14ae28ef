package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: a frame or request id ties the spans
// of one unit of work together, and parent points at the span that caused
// it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// at converts a wall-clock time to the tracer's nanosecond clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// open starts a span at ts and returns its index (-1 on a nil tracer).
func (t *tracer) open(name string, id int64, parent int32, ts time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: t.at(ts)})
	t.mu.Unlock()
	return i
}

// close ends span i at ts.
func (t *tracer) close(i int32, ts time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].End = t.at(ts)
	t.mu.Unlock()
}

// begin opens a span now; end closes it now.
func (t *tracer) begin(name string, id int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.open(name, id, parent, time.Now())
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.close(i, time.Now())
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// work under one parent) are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids[int32(i)])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfByName sums self time per span name, and returns the total duration
// of the spans named root (the denominator of a share).
func selfByName(spans []span, root string) (map[string]int64, int64) {
	self := selfTimes(spans)
	by := make(map[string]int64)
	var rootTotal int64
	for i, s := range spans {
		by[s.Name] += self[i]
		if s.Name == root {
			rootTotal += s.End - s.Start
		}
	}
	return by, rootTotal
}

// durations returns the durations in microseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
