// Fixture: metric registrations must use the telemetry name-table
// constants, and every handle* method taking a protocol *Request must
// record an RPC latency observation.
package serverengine

import (
	"fmt"

	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// Registrations under name-table constants are clean; literals,
// locally-declared consts and computed names are not.
const localName = "prism_local_total"

var (
	mRPC       = telemetry.NewHistogramVec(telemetry.MetricRPCSeconds, "type", telemetry.LatencyBuckets)
	mHits      = telemetry.NewCounter(telemetry.MetricCacheHits)
	mHeld      = telemetry.NewGaugeVec(telemetry.MetricHeldBytes, "site")
	mLiteral   = telemetry.NewCounter("prism_adhoc_total")                 // want "not a constant from the telemetry name table"
	mLocal     = telemetry.NewCounter(localName)                           // want "not a constant from the telemetry name table"
	mComputed  = telemetry.NewHistogram(fmt.Sprintf("prism_%s", "x"), nil) // want "not a constant from the telemetry name table"
	mBadVec    = telemetry.NewCounterVec("prism_adhoc_by_type", "type")    // want "not a constant from the telemetry name table"
	mBadGauges = telemetry.NewGaugeVec(localName+"_bytes", "site")         // want "not a constant from the telemetry name table"
)

// Engine mimics a server engine with the observeRPC seam.
type Engine struct{ tick int }

func (e *Engine) observeRPC(typ string) func() {
	mRPC.Observe(typ, 0)
	return func() {}
}

// handlePSI times itself — clean.
func (e *Engine) handlePSI(r protocol.PSIRequest) (any, error) {
	defer e.observeRPC("psi")()
	mHits.Inc()
	return nil, nil
}

// handleCount forgets the latency observation.
func (e *Engine) handleCount(r protocol.CountRequest) (any, error) { // want "never records its RPC latency"
	_ = r.Table
	return nil, nil
}

// handleStoreDelta forgets too, even though it touches other metrics.
func (e *Engine) handleStoreDelta(r protocol.StoreDeltaRequest) (any, error) { // want "never records its RPC latency"
	mHits.Inc()
	_ = r.Table
	return nil, nil
}

// handleListTables takes no request payload, so it is exempt.
func (e *Engine) handleListTables() protocol.ListTablesReply {
	return protocol.ListTablesReply{}
}

// handleTick is not an RPC handler (no protocol *Request parameter).
func (e *Engine) handleTick(n int) { e.tick += n }

// notAHandler takes a request but is not part of the handle* family.
func (e *Engine) notAHandler(r protocol.PSIRequest) { _ = r }
