package announcer

import (
	"time"

	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// Announcer-plane metric handles (names from the telemetry name table;
// prism-vet's metricnames analyzer enforces the const-only rule).
var (
	mResolves       = telemetry.NewCounter(telemetry.MetricAnnounceResolves)
	mResolveSeconds = telemetry.NewHistogram(telemetry.MetricAnnounceSeconds, telemetry.LatencyBuckets)
	mReduceSeconds  = telemetry.NewHistogram(telemetry.MetricReduceSeconds, telemetry.LatencyBuckets)
)

// reduceSpan is the span a traced reduce attaches to its reply: the
// announcer's round of the query timeline (nil for untraced queries).
func reduceSpan(traceID string, start time.Time) []protocol.Span {
	if traceID == "" {
		return nil
	}
	return []protocol.Span{{
		Name: "announcer:reduce", Site: "announcer",
		StartNS: start.UnixNano(), DurNS: time.Since(start).Nanoseconds(),
	}}
}
