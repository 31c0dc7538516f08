package telemetry

import (
	"context"
	"encoding/json"
	"sort"
	"sync"

	"prism/internal/protocol"
)

// Query tracing: the system mints one trace id per query, threads it
// through the owner engines via the context, and the engines stamp it
// onto the wire requests (an untraced query's empty id is one zero
// length byte on the wire). Every handler that sees a non-empty trace id
// annotates its reply Stats with protocol.Span entries; the spans ride
// the existing Stats accumulation paths back to the owner, and the
// system files the assembled set under the trace id in a Tracer.

type traceKey struct{}

// WithTraceID returns a context carrying the query trace id.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID extracts the trace id from ctx ("" when the query is
// untraced).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Trace is one query's assembled timeline.
type Trace struct {
	ID    string
	Spans []protocol.Span // sorted by StartNS
}

// JSON dumps the timeline, one span object per entry.
func (t *Trace) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Phases returns the distinct span names in first-seen order — the
// cheap "did every layer report?" check.
func (t *Trace) Phases() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range t.Spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}

// Tracer is a bounded qid-keyed trace store: completed traces are kept
// FIFO up to the capacity, oldest evicted first. All methods are safe
// for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	order  []string
	traces map[string]*Trace
}

// NewTracer returns a tracer retaining up to capacity traces
// (capacity <= 0 → 128).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 128
	}
	return &Tracer{cap: capacity, traces: make(map[string]*Trace)}
}

// Record appends spans to the trace id, creating it on first use and
// evicting the oldest trace past the capacity.
func (t *Tracer) Record(id string, spans ...protocol.Span) {
	if id == "" || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[id]
	if !ok {
		if len(t.order) >= t.cap {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, evict)
		}
		tr = &Trace{ID: id}
		t.traces[id] = tr
		t.order = append(t.order, id)
	}
	tr.Spans = append(tr.Spans, spans...)
}

// Get returns a copy of the trace with spans sorted by start time.
func (t *Tracer) Get(id string) (*Trace, bool) {
	t.mu.Lock()
	tr, ok := t.traces[id]
	var cp *Trace
	if ok {
		cp = &Trace{ID: tr.ID, Spans: append([]protocol.Span(nil), tr.Spans...)}
	}
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	sort.SliceStable(cp.Spans, func(i, j int) bool { return cp.Spans[i].StartNS < cp.Spans[j].StartNS })
	return cp, true
}

// IDs lists the retained trace ids, oldest first.
func (t *Tracer) IDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}
