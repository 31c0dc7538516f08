package serverengine

import (
	"fmt"
	"time"

	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// Package-level metric handles, registered once at init in the
// process-global telemetry registry. Names come from the telemetry
// name table only (the metricnames prism-vet analyzer enforces this),
// so the full series inventory of a server binary is auditable from
// internal/telemetry/names.go.
var (
	mRPCSeconds        = telemetry.NewHistogramVec(telemetry.MetricRPCSeconds, "type", telemetry.LatencyBuckets)
	mQueries           = telemetry.NewCounterVec(telemetry.MetricQueries, "type")
	mCells             = telemetry.NewCounter(telemetry.MetricCellsProcessed)
	mCacheHits         = telemetry.NewCounter(telemetry.MetricCacheHits)
	mCacheMisses       = telemetry.NewCounter(telemetry.MetricCacheMisses)
	mCompactions       = telemetry.NewCounter(telemetry.MetricCompactions)
	mCompactionSeconds = telemetry.NewHistogram(telemetry.MetricCompactionSeconds, telemetry.LatencyBuckets)
	mCompactionEntries = telemetry.NewCounter(telemetry.MetricCompactionEntries)
	mDeltaBacklog      = telemetry.NewGaugeVec(telemetry.MetricDeltaBacklog, "table")
	mPendingSweeps     = telemetry.NewCounter(telemetry.MetricPendingSweeps)
	mPendingReclaimed  = telemetry.NewCounter(telemetry.MetricPendingReclaimed)
	mHeldBytes         = telemetry.NewGaugeVec(telemetry.MetricHeldBytes, "site")
	mPeakHeldBytes     = telemetry.NewGaugeVec(telemetry.MetricPeakHeldBytes, "site")
)

// observeRPC starts the latency clock for one request handler; the
// returned func records the elapsed time under the message-type label.
// Every exported *Request handler defers one of these — the metricnames
// analyzer fails prism-vet on a handler that forgets.
func (e *Engine) observeRPC(typ string) func() {
	start := time.Now()
	return func() { mRPCSeconds.Observe(typ, time.Since(start).Seconds()) }
}

// site is this engine's span/gauge site label: group and server index,
// matching the multi-group address scheme ("g0/s1" is g0/server/1).
func (e *Engine) site() string {
	return fmt.Sprintf("g%d/s%d", e.opts.Group, e.view.Index)
}

// announcerWaitSpan is the span a traced ExtremeFetch attaches for the
// time it spent polling S_a (nil for untraced queries).
func (e *Engine) announcerWaitSpan(traceID string, start time.Time) []protocol.Span {
	if traceID == "" {
		return nil
	}
	return []protocol.Span{{
		Name: "server:announcer-wait", Site: e.site(),
		StartNS: start.UnixNano(), DurNS: time.Since(start).Nanoseconds(),
	}}
}

// finishQuery closes out one query handler: bumps the per-type query
// and processed-cells counters and — for traced requests — converts the
// handler-local stat accumulators into per-phase spans stamped with
// this server's site, appended to st.Spans so they ride the reply's
// Stats back to the owner. Phase spans share the handler's start time:
// fetch/patch/compute interleave per column within a handler, so the
// accumulated durations are the truthful shape, not a sequential
// sub-timeline.
func (e *Engine) finishQuery(typ, traceID string, start time.Time, st *protocol.Stats) {
	mQueries.Inc(typ)
	mCells.Add(int64(st.Cells))
	if traceID == "" {
		return
	}
	site := e.site()
	base := start.UnixNano()
	st.Spans = append(st.Spans, protocol.Span{Name: "server:rpc:" + typ, Site: site, StartNS: base, DurNS: time.Since(start).Nanoseconds()})
	if st.FetchNS > 0 {
		st.Spans = append(st.Spans, protocol.Span{Name: "server:fetch", Site: site, StartNS: base, DurNS: st.FetchNS})
	}
	if st.PatchNS > 0 {
		st.Spans = append(st.Spans, protocol.Span{Name: "server:patch", Site: site, StartNS: base, DurNS: st.PatchNS})
	}
	if st.ComputeNS > 0 {
		st.Spans = append(st.Spans, protocol.Span{Name: "server:compute", Site: site, StartNS: base, DurNS: st.ComputeNS})
	}
}
