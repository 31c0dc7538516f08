package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the harness recorded around a call into a
// layer. Spans of one round share Round; Parent is the ID of the span
// that was open when this one began (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is off during the
// measured window; the traced pass turns it on and runs one client
// serially, so spans nest strictly in time and one stack — shared with
// the gateway's backend goroutine — yields every parent.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	round int
	open  []int // stack of open span indexes
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

var noSpan = func() {}

// begin opens a span and returns the func that closes it.
func (t *tracer) begin(name string) func() {
	if !t.on.Load() {
		return noSpan
	}
	t.mu.Lock()
	s := span{ID: len(t.spans) + 1, Round: t.round, Name: name, StartNS: time.Since(t.epoch).Nanoseconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[idx].EndNS = time.Since(t.epoch).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}
}

func (t *tracer) setRound(r int) {
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

// selfNS returns, per span name, each span's duration minus the part its
// direct children cover — a layer's self time.
func (t *tracer) selfNS() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		children[s.Parent] += s.EndNS - s.StartNS
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-children[s.ID]))
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	body, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
