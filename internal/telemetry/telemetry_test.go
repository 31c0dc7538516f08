package telemetry

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"prism/internal/protocol"
)

// The Default registry is process-global and this package's tests run
// alongside the engines' init-time registrations, so tests register
// under real names.go constants and assert deltas, not absolutes.

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter(MetricCacheHits)
	before := c.Value()
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value() - before; got != 5 {
		t.Fatalf("counter delta = %d, want 5", got)
	}
	if again := NewCounter(MetricCacheHits); again != c {
		t.Fatal("re-registration did not return the existing handle")
	}

	g := NewGauge(MetricDeltaBacklog)
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("gauge after Add = %d", g.Value())
	}
}

func TestRegistryRejectsKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.register(MetricQueries, func() metric { return &Counter{name: MetricQueries} })
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.register(MetricQueries, func() metric { return &Gauge{name: MetricQueries} })
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := newHistogram(MetricRPCSeconds, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.count != 4 {
		t.Fatalf("count = %d", s.count)
	}
	// Cumulative: ≤0.01 → 1, ≤0.1 → 2, ≤1 → 3 (+Inf picks up the 5).
	want := []uint64{1, 2, 3}
	for i, w := range want {
		if s.counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, s.counts[i], w)
		}
	}
	if s.sum < 5.55 || s.sum > 5.56 {
		t.Errorf("sum = %v", s.sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(MetricRPCSeconds, LatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.count != 8000 {
		t.Fatalf("count = %d, want 8000", s.count)
	}
	if s.sum < 7.99 || s.sum > 8.01 {
		t.Fatalf("sum = %v, want ~8.0", s.sum)
	}
}

func TestVecChildrenAndPromOutput(t *testing.T) {
	r := NewRegistry()
	cv := r.register(MetricQueries, func() metric {
		return &CounterVec{v: vec[*Counter]{name: MetricQueries, label: "type",
			kids: make(map[string]*Counter), fresh: func() *Counter { return &Counter{name: MetricQueries} }}}
	}).(*CounterVec)
	cv.Inc("psi")
	cv.Add("agg", 3)
	hv := r.register(MetricRPCSeconds, func() metric {
		return &HistogramVec{v: vec[*Histogram]{name: MetricRPCSeconds, label: "type",
			kids: make(map[string]*Histogram), fresh: func() *Histogram { return newHistogram(MetricRPCSeconds, []float64{0.1, 1}) }}}
	}).(*HistogramVec)
	hv.Observe("psi", 0.05)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE prism_queries_total counter",
		`prism_queries_total{type="agg"} 3`,
		`prism_queries_total{type="psi"} 1`,
		"# TYPE prism_rpc_seconds histogram",
		`prism_rpc_seconds_bucket{type="psi",le="0.1"} 1`,
		`prism_rpc_seconds_bucket{type="psi",le="+Inf"} 1`,
		`prism_rpc_seconds_sum{type="psi"} 0.05`,
		`prism_rpc_seconds_count{type="psi"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Text-format sanity: every non-comment line is "name{...} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	g := r.register(MetricHeldBytes, func() metric { return &Gauge{name: MetricHeldBytes} }).(*Gauge)
	g.Set(1024)
	r.RegisterVar("tables", func() any { return []string{"main"} })
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back[MetricHeldBytes] != float64(1024) {
		t.Errorf("held bytes = %v", back[MetricHeldBytes])
	}
	if _, ok := back["tables"]; !ok {
		t.Error("callback var missing from snapshot")
	}
}

func TestTracerRecordsSortsAndEvicts(t *testing.T) {
	tr := NewTracer(2)
	tr.Record("q1", protocol.Span{Name: "server:compute", StartNS: 20, DurNS: 5})
	tr.Record("q1", protocol.Span{Name: "server:fetch", StartNS: 10, DurNS: 5, Site: "g0/s1"})
	got, ok := tr.Get("q1")
	if !ok || len(got.Spans) != 2 {
		t.Fatalf("trace q1 = %+v, ok %v", got, ok)
	}
	if got.Spans[0].Name != "server:fetch" {
		t.Errorf("spans not sorted by start: %+v", got.Spans)
	}
	if phases := got.Phases(); len(phases) != 2 {
		t.Errorf("phases = %v", phases)
	}
	raw, err := got.JSON()
	if err != nil || !strings.Contains(string(raw), "server:fetch") {
		t.Errorf("JSON dump = %s, err %v", raw, err)
	}

	// Capacity 2: a third trace evicts the oldest.
	tr.Record("q2", protocol.Span{Name: "a"})
	tr.Record("q3", protocol.Span{Name: "a"})
	if _, ok := tr.Get("q1"); ok {
		t.Error("q1 survived past capacity")
	}
	if ids := tr.IDs(); len(ids) != 2 || ids[0] != "q2" {
		t.Errorf("ids = %v", ids)
	}
	// Empty ids and empty span lists are no-ops.
	tr.Record("", protocol.Span{Name: "x"})
	tr.Record("q4")
	if _, ok := tr.Get("q4"); ok {
		t.Error("span-less Record created a trace")
	}
}

func TestTraceContextPropagation(t *testing.T) {
	ctx := WithTraceID(context.Background(), "trace-7")
	if got := TraceID(ctx); got != "trace-7" {
		t.Fatalf("TraceID = %q", got)
	}
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("untraced ctx TraceID = %q", got)
	}
	if WithTraceID(context.Background(), "") != context.Background() {
		t.Error("empty id should not allocate a context")
	}
}

func TestAdminMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	c := r.register(MetricCacheHits, func() metric { return &Counter{name: MetricCacheHits} }).(*Counter)
	c.Add(9)
	r.RegisterVar("quarantined", func() any { return nil })
	mux := adminMux(r)
	for path, want := range map[string]string{
		"/metrics":            "prism_cache_hits_total 9",
		"/debug/vars":         `"prism_cache_hits_total": 9`,
		"/debug/pprof/":       "profiles",
		"/debug/pprof/symbol": "",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
		}
		if want != "" && !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: body missing %q:\n%s", path, want, rec.Body.String())
		}
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		0:       "0",
		42:      "42",
		0.05:    "0.05",
		1 << 20: "1048576",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := labelPart("type", `a"b\c`, ""); got != `{type="a\"b\\c"}` {
		t.Errorf("labelPart escaping = %q", got)
	}
}
