package ownerengine

import (
	"fmt"
	"time"

	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// mFanoutSeconds times one multi-group fan-out (router.eachGroup): how
// long the slowest group of a concurrently fanned operation took, per
// operation — a query's kind name (its whole round script, Exec), or
// outsource, update, ping.
var mFanoutSeconds = telemetry.NewHistogramVec(telemetry.MetricFanoutSeconds, "op", telemetry.LatencyBuckets)

// finishTrace closes out one engine-level query for tracing: it stamps
// the trace id into the stats and, when the query is traced, appends the
// owner-side span covering the whole exchange (request fan-out, reply
// recombination and final processing). The qid goes in the note so a
// multi-group timeline attributes each owner span to its sub-query.
func (o *engine) finishTrace(st *QueryStats, tid, qid string, start time.Time) {
	if tid == "" {
		return
	}
	st.TraceID = tid
	st.Server.Spans = append(st.Server.Spans, protocol.Span{
		Name:    "owner:exchange",
		Site:    fmt.Sprintf("owner/%d/g%d", o.Index, o.view.Group),
		StartNS: start.UnixNano(),
		DurNS:   time.Since(start).Nanoseconds(),
		Note:    qid,
	})
}
