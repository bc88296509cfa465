package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent is the id of the span that caused it (0 = none); Iter is the
// workload iteration (or job, or test) the call belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Only the traced pass uses
// one; the end-to-end pass never calls into it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(parent, iter int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := s.End - s.Start
	t.mu.Unlock()
	return float64(d) / 1e6
}

// do runs f inside a span and returns the span's duration in milliseconds.
func (t *tracer) do(parent, iter int, name string, f func()) float64 {
	id := t.begin(parent, iter, name)
	f()
	return t.end(id)
}

// perIter sums, for each iteration, the durations of the spans called name,
// and returns the sums in milliseconds in iteration order.
func (t *tracer) perIter(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byIter := make(map[int]int64)
	maxIter := -1
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		byIter[s.Iter] += s.End - s.Start
		if s.Iter > maxIter {
			maxIter = s.Iter
		}
	}
	out := make([]float64, 0, len(byIter))
	for i := 0; i <= maxIter; i++ {
		if ns, ok := byIter[i]; ok {
			out = append(out, float64(ns)/1e6)
		}
	}
	return out
}

// durations returns the duration of every span called name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSONL writes one span a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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
