// Package telemetry is PRISM's stdlib-only observability layer: a
// process-global metrics registry (atomic counters, gauges and
// fixed-bucket histograms behind typed handles, expvar-style but with
// const-registered names and a Prometheus text-exposition writer) plus
// the qid-keyed query tracer the engines thread per-phase spans
// through.
//
// Design points:
//
//   - Names come from the const table in names.go only; the metricnames
//     prism-vet analyzer enforces this at every registration site, so
//     the series inventory of a binary is auditable from one file.
//   - Handles are cheap enough for hot paths: a counter Add is one
//     atomic add behind one atomic enabled-check load. SetEnabled(false)
//     turns every recording into that single load+branch; what the
//     enabled plane costs a query is trace_overhead_pct in the repo
//     benchmark's traced pass (benchmark/).
//   - Registration is idempotent: constructing an already-registered
//     name returns the existing handle (package-level handles in several
//     engines of one process must agree), and mismatched re-registration
//     (kind or label change) panics at init time rather than skewing
//     series silently.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates every hot-path recording. Default on; benchmarks flip
// it to measure instrumentation overhead.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns metric recording (and span assembly in the engines,
// which consult the same switch) on or off process-wide. Gauges are not
// replayed on re-enable, so values tracked incrementally (held bytes)
// drift if flipped mid-run — the switch exists for overhead
// measurement, not for operational use.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// metric is what the registry holds per name.
type metric interface {
	kind() string // "counter" | "gauge" | "histogram"
	// series appends (labelSuffix, snapshot) pairs; non-vec metrics
	// yield one entry with an empty suffix.
	series() []seriesPoint
	labelName() string
}

type seriesPoint struct {
	label string // label value ("" for non-vec)
	value float64
	hist  *histSnapshot // non-nil for histograms
}

type histSnapshot struct {
	buckets []float64 // upper bounds
	counts  []uint64  // cumulative per bucket
	count   uint64
	sum     float64
}

// Registry is a named collection of metrics plus JSON callback vars.
// The package-level Default registry is what the constructors and the
// admin endpoints use; separate registries exist only for tests.
type Registry struct {
	mu      sync.Mutex
	order   []string
	metrics map[string]metric
	vars    map[string]func() any
}

// NewRegistry returns an empty registry (tests).
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric), vars: make(map[string]func() any)}
}

// Default is the process-global registry.
var Default = NewRegistry()

func (r *Registry) register(name string, fresh func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		want := fresh()
		if m.kind() != want.kind() || m.labelName() != want.labelName() {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s(label %q), was %s(label %q)",
				name, want.kind(), want.labelName(), m.kind(), m.labelName()))
		}
		return m
	}
	m := fresh()
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// RegisterVar exposes a callback's value under /debug/vars (JSON only,
// not Prometheus): served tables, quarantine reasons, anything whose
// shape is richer than a number. Later registrations replace earlier
// ones of the same name.
func (r *Registry) RegisterVar(name string, fn func() any) {
	r.mu.Lock()
	r.vars[name] = fn
	r.mu.Unlock()
}

// ---- counter ----

// Counter is a monotonically increasing atomic int64.
type Counter struct {
	name string
	v    atomic.Int64
}

func (c *Counter) kind() string      { return "counter" }
func (c *Counter) labelName() string { return "" }
func (c *Counter) series() []seriesPoint {
	return []seriesPoint{{value: float64(c.v.Load())}}
}

// Add increments the counter. Negative deltas are ignored (counters
// only go up).
func (c *Counter) Add(n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (benchx reads deltas off this).
func (c *Counter) Value() int64 { return c.v.Load() }

// NewCounter registers (or returns the existing) counter under name in
// the Default registry. name must be a names.go constant.
func NewCounter(name string) *Counter {
	return Default.register(name, func() metric { return &Counter{name: name} }).(*Counter)
}

// ---- gauge ----

// Gauge is an atomic int64 that can move both ways.
type Gauge struct {
	name string
	v    atomic.Int64
}

func (g *Gauge) kind() string      { return "gauge" }
func (g *Gauge) labelName() string { return "" }
func (g *Gauge) series() []seriesPoint {
	return []seriesPoint{{value: float64(g.v.Load())}}
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewGauge registers (or returns the existing) gauge under name in the
// Default registry. name must be a names.go constant.
func NewGauge(name string) *Gauge {
	return Default.register(name, func() metric { return &Gauge{name: name} }).(*Gauge)
}

// ---- histogram ----

// Histogram is a fixed-bucket distribution: cumulative bucket counts,
// a total count and a sum, all updated atomically (the sum via a
// float64-bits CAS loop).
type Histogram struct {
	name    string
	buckets []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(name string, buckets []float64) *Histogram {
	return &Histogram{name: name, buckets: buckets, counts: make([]atomic.Uint64, len(buckets))}
}

func (h *Histogram) kind() string      { return "histogram" }
func (h *Histogram) labelName() string { return "" }
func (h *Histogram) series() []seriesPoint {
	return []seriesPoint{{hist: h.snapshot()}}
}

func (h *Histogram) snapshot() *histSnapshot {
	s := &histSnapshot{
		buckets: h.buckets,
		counts:  make([]uint64, len(h.buckets)),
		count:   h.count.Load(),
		sum:     math.Float64frombits(h.sumBits.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.counts[i] = cum
	}
	return s
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reads the total observation count.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// NewHistogram registers (or returns the existing) histogram under
// name in the Default registry. name must be a names.go constant;
// buckets are sorted upper bounds (use LatencyBuckets / SizeBuckets).
func NewHistogram(name string, buckets []float64) *Histogram {
	return Default.register(name, func() metric { return newHistogram(name, buckets) }).(*Histogram)
}

// ---- vec variants (one label dimension) ----

type vec[M metric] struct {
	name  string
	label string
	mu    sync.RWMutex
	kids  map[string]M
	fresh func() M
}

func (v *vec[M]) child(labelValue string) M {
	v.mu.RLock()
	m, ok := v.kids[labelValue]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok = v.kids[labelValue]; ok {
		return m
	}
	m = v.fresh()
	v.kids[labelValue] = m
	return m
}

func (v *vec[M]) points() []seriesPoint {
	v.mu.RLock()
	labels := make([]string, 0, len(v.kids))
	for l := range v.kids {
		labels = append(labels, l)
	}
	v.mu.RUnlock()
	sort.Strings(labels)
	var out []seriesPoint
	for _, l := range labels {
		v.mu.RLock()
		m := v.kids[l]
		v.mu.RUnlock()
		for _, p := range m.series() {
			p.label = l
			out = append(out, p)
		}
	}
	return out
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ v vec[*Counter] }

func (c *CounterVec) kind() string          { return "counter" }
func (c *CounterVec) labelName() string     { return c.v.label }
func (c *CounterVec) series() []seriesPoint { return c.v.points() }

// Add increments the child counter for labelValue.
func (c *CounterVec) Add(labelValue string, n int64) { c.v.child(labelValue).Add(n) }

// Inc adds one to the child counter for labelValue.
func (c *CounterVec) Inc(labelValue string) { c.v.child(labelValue).Inc() }

// Value reads the child counter for labelValue.
func (c *CounterVec) Value(labelValue string) int64 { return c.v.child(labelValue).Value() }

// NewCounterVec registers a one-label counter family. name must be a
// names.go constant; label is the label name (values stay dynamic).
func NewCounterVec(name, label string) *CounterVec {
	return Default.register(name, func() metric {
		return &CounterVec{v: vec[*Counter]{name: name, label: label,
			kids: make(map[string]*Counter), fresh: func() *Counter { return &Counter{name: name} }}}
	}).(*CounterVec)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ v vec[*Gauge] }

func (g *GaugeVec) kind() string          { return "gauge" }
func (g *GaugeVec) labelName() string     { return g.v.label }
func (g *GaugeVec) series() []seriesPoint { return g.v.points() }

// Set stores the child gauge for labelValue.
func (g *GaugeVec) Set(labelValue string, n int64) { g.v.child(labelValue).Set(n) }

// Add moves the child gauge for labelValue by delta.
func (g *GaugeVec) Add(labelValue string, n int64) { g.v.child(labelValue).Add(n) }

// Value reads the child gauge for labelValue.
func (g *GaugeVec) Value(labelValue string) int64 { return g.v.child(labelValue).Value() }

// NewGaugeVec registers a one-label gauge family. name must be a
// names.go constant.
func NewGaugeVec(name, label string) *GaugeVec {
	return Default.register(name, func() metric {
		return &GaugeVec{v: vec[*Gauge]{name: name, label: label,
			kids: make(map[string]*Gauge), fresh: func() *Gauge { return &Gauge{name: name} }}}
	}).(*GaugeVec)
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ v vec[*Histogram] }

func (h *HistogramVec) kind() string          { return "histogram" }
func (h *HistogramVec) labelName() string     { return h.v.label }
func (h *HistogramVec) series() []seriesPoint { return h.v.points() }

// Observe records one value into the child for labelValue.
func (h *HistogramVec) Observe(labelValue string, val float64) { h.v.child(labelValue).Observe(val) }

// Count reads the child's observation count.
func (h *HistogramVec) Count(labelValue string) uint64 { return h.v.child(labelValue).Count() }

// NewHistogramVec registers a one-label histogram family. name must be
// a names.go constant.
func NewHistogramVec(name, label string, buckets []float64) *HistogramVec {
	return Default.register(name, func() metric {
		return &HistogramVec{v: vec[*Histogram]{name: name, label: label,
			kids: make(map[string]*Histogram), fresh: func() *Histogram { return newHistogram(name, buckets) }}}
	}).(*HistogramVec)
}

// ---- exposition ----

// WriteProm writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): # TYPE headers, cumulative
// _bucket/_sum/_count triples for histograms, escaped label values.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		r.mu.Lock()
		m := r.metrics[name]
		r.mu.Unlock()
		if m == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.kind()); err != nil {
			return err
		}
		label := m.labelName()
		for _, p := range m.series() {
			if p.hist == nil {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", name, labelPart(label, p.label, ""), formatFloat(p.value)); err != nil {
					return err
				}
				continue
			}
			h := p.hist
			for i, ub := range h.buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name,
					labelPart(label, p.label, fmt.Sprintf(`le="%s"`, formatFloat(ub))), h.counts[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelPart(label, p.label, `le="+Inf"`), h.count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPart(label, p.label, ""), formatFloat(h.sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelPart(label, p.label, ""), h.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelPart renders the {label="value",extra} suffix, empty when there
// is nothing to say.
func labelPart(label, value, extra string) string {
	var parts []string
	if label != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, label, escapeLabel(value)))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders integers without an exponent and everything else
// in Go's shortest form — both valid Prometheus values.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot returns the /debug/vars JSON view: every metric (histograms
// as {count, sum}) plus every registered callback var.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	varNames := make([]string, 0, len(r.vars))
	for n := range r.vars {
		varNames = append(varNames, n)
	}
	r.mu.Unlock()
	out := make(map[string]any, len(names)+len(varNames))
	for _, name := range names {
		r.mu.Lock()
		m := r.metrics[name]
		r.mu.Unlock()
		if m == nil {
			continue
		}
		label := m.labelName()
		if label == "" {
			for _, p := range m.series() {
				out[name] = snapshotPoint(p)
			}
			continue
		}
		family := make(map[string]any)
		for _, p := range m.series() {
			family[p.label] = snapshotPoint(p)
		}
		out[name] = family
	}
	for _, n := range varNames {
		r.mu.Lock()
		fn := r.vars[n]
		r.mu.Unlock()
		if fn != nil {
			out[n] = fn()
		}
	}
	return out
}

func snapshotPoint(p seriesPoint) any {
	if p.hist == nil {
		return p.value
	}
	return map[string]any{"count": p.hist.count, "sum": p.hist.sum}
}
