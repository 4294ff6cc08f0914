package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layers, named after the repository's modules. "bench" is the
// benchmark's own work between layer calls: input generation, output
// verification and glue.
const (
	layerBench       = "bench"
	layerExperiments = "experiments"
	layerCore        = "core"
	layerCluster     = "cluster"
	layerSimclock    = "simclock"
	layerErasure     = "erasure"
	layerGF256       = "gf256"
)

// span is one timed call into a layer. Start and End are offsets from the
// tracer's origin; Parent indexes the enclosing span (-1 for a root); Run
// groups the spans of one unit of work.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory. Calls are expected in strict nesting
// order; the mutex only guards against a layer calling back from another
// goroutine. A nil *tracer records nothing, so untraced code paths pay
// one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	stack  []int
	run    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(time.Since(t.origin)), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(time.Since(t.origin))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	return time.Duration(s.End - s.Start)
}

// nextRun starts a new unit of work.
func (t *tracer) nextRun() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// mark returns the index the next span will get, to delimit a section.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per layer, each span's duration minus the time its
// direct children cover, over spans[from:to].
func (t *tracer) selfTimes(from, to int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, to-from)
	for i := from; i < to; i++ {
		if p := t.spans[i].Parent; p >= from {
			child[p-from] += t.spans[i].End - t.spans[i].Start
		}
	}
	self := map[string]time.Duration{}
	for i := from; i < to; i++ {
		s := t.spans[i]
		self[s.Layer] += time.Duration(s.End - s.Start - child[i-from])
	}
	return self
}

// durations returns the durations of every span named name in
// spans[from:to].
func (t *tracer) durations(from, to int, name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			out.add(time.Duration(s.End - s.Start))
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
