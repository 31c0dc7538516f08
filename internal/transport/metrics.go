package transport

import (
	"time"

	"prism/internal/telemetry"
)

// Frame-level metrics, shared by the TCP transport and the in-process
// Network's EncodeWire mode: frame-encode latency and the encoded body
// size per message type. The label is the payload's Go type name, kept
// in the protocol codec's type table (protocol.Measured.Label); no trace
// spans are minted here (span annotation is the engines' job).
var (
	mFrameEncodeSeconds = telemetry.NewHistogram(telemetry.MetricFrameEncodeSeconds, telemetry.LatencyBuckets)
	mRPCBytes           = telemetry.NewHistogramVec(telemetry.MetricRPCBytes, "type", telemetry.SizeBuckets)
)

// observeFrame records one encoded message under its type label.
func observeFrame(label string, size int64, encode time.Duration) {
	mFrameEncodeSeconds.Observe(encode.Seconds())
	mRPCBytes.Observe(label, float64(size))
}
