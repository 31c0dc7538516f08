package transport

import (
	"time"

	"prism/internal/telemetry"
)

// Frame-level metrics, shared by the TCP transport and the in-process
// Network's EncodeWire mode: frame-encode latency and the encoded size
// (envelope and slabs) per message type. The label is the payload's Go
// type name, cached per type beside the slab field table
// (protocol.Slabs.Label); no trace spans are minted here (span
// annotation is the engines' job).
var (
	mFrameEncodeSeconds = telemetry.NewHistogram(telemetry.MetricFrameEncodeSeconds, telemetry.LatencyBuckets)
	mRPCBytes           = telemetry.NewHistogramVec(telemetry.MetricRPCBytes, "type", telemetry.SizeBuckets)
)

// observeFrame records one encoded message under its type label.
// Called after the encode so a disabled registry costs a single atomic
// load.
func observeFrame(label string, size int64, encode time.Duration) {
	if !telemetry.Enabled() {
		return
	}
	mFrameEncodeSeconds.Observe(encode.Seconds())
	mRPCBytes.Observe(label, float64(size))
}
