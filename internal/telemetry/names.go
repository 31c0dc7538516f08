package telemetry

// Metric series names — the single name table every registration goes
// through. Constructors (NewCounter, NewGaugeVec, ...) must be called
// with one of these constants, never a computed string: the metricnames
// prism-vet analyzer rejects literals, fmt.Sprintf and locally declared
// names, so the full series inventory of a binary is exactly this list.
// Label VALUES stay dynamic (message types, table names, sites); only
// the series name is pinned.
//
// Naming follows the Prometheus conventions: counters end in _total,
// durations are histograms in seconds, sizes are histograms in bytes,
// gauges carry the bare unit.
const (
	// Transport / RPC plane.
	MetricRPCSeconds         = "prism_rpc_seconds"          // histogram, label type: server-side handler latency per message type
	MetricRPCBytes           = "prism_rpc_bytes"            // histogram, label type: encoded frame size per message type
	MetricFrameEncodeSeconds = "prism_frame_encode_seconds" // histogram: frame encode (header + payload) per frame

	// Server query plane.
	MetricQueries        = "prism_queries_total"         // counter, label type: handled query requests
	MetricCellsProcessed = "prism_cells_processed_total" // counter: domain cells run through the oblivious compute loop
	MetricCacheHits      = "prism_cache_hits_total"      // counter: table-epoch cache hits (owner sums, merge chunks)
	MetricCacheMisses    = "prism_cache_misses_total"    // counter: table-epoch cache misses (sum builds, chunk reads)

	// Storage / update plane.
	MetricCompactions       = "prism_compactions_total"               // counter: completed compaction passes
	MetricCompactionSeconds = "prism_compaction_seconds"              // histogram: duration of one compaction pass
	MetricCompactionEntries = "prism_compaction_entries_total"        // counter: overlay entries folded into base chunks
	MetricDeltaBacklog      = "prism_delta_backlog"                   // gauge, label table: merged-but-uncompacted delta entries
	MetricPendingSweeps     = "prism_pending_upload_sweeps_total"     // counter: pending-upload TTL sweep passes
	MetricPendingReclaimed  = "prism_pending_uploads_reclaimed_total" // counter: abandoned upload assemblies reclaimed
	MetricStoreChunkReads   = "prism_store_chunk_reads_total"         // counter: chunk files read (and CRC-checked) from a column store

	// Residency.
	MetricHeldBytes     = "prism_held_bytes"      // gauge, label site: column bytes currently held by an engine
	MetricPeakHeldBytes = "prism_peak_held_bytes" // gauge, label site: high-water mark of prism_held_bytes

	// Owner plane.
	MetricFanoutSeconds = "prism_fanout_seconds" // histogram, label op: slowest group's latency of one owner fan-out (a query's kind name, outsource, update, ping)

	// Gateway plane (the stateless query front tier).
	MetricGatewayAccepted     = "prism_gateway_accepted_total"   // counter, label op: queries admitted past admission control
	MetricGatewayShed         = "prism_gateway_shed_total"       // counter, label reason: queries refused (queue-full, deadline, closed)
	MetricGatewayQueued       = "prism_gateway_queued_total"     // counter: admitted queries that waited for a rate token
	MetricGatewayQueueDepth   = "prism_gateway_queue_depth"      // gauge: queries currently waiting in the admission queue
	MetricGatewayConnections  = "prism_gateway_connections"      // gauge: live front-protocol client connections
	MetricGatewayPoolHealthy  = "prism_gateway_pool_healthy"     // gauge: owner-pool members currently passing the liveness probe
	MetricGatewayReroutes     = "prism_gateway_reroutes_total"   // counter: queries re-leased to another owner after a member failure
	MetricGatewayFrontSeconds = "prism_gateway_front_seconds"    // histogram, label op: submit-to-result latency through the front tier
	MetricGatewayQueueSeconds = "prism_gateway_queue_seconds"    // histogram: time admitted queries spent waiting for a rate token
	MetricGatewayFrameBytes   = "prism_gateway_frame_bytes"      // histogram: decoded front-protocol request frame sizes
	MetricGatewayBadFrames    = "prism_gateway_bad_frames_total" // counter: front-protocol frames rejected by the decoder

	// Announcer plane.
	MetricAnnounceResolves = "prism_announce_resolves_total"  // counter: extreme rounds resolved (Eq 13-14 + re-share)
	MetricAnnounceSeconds  = "prism_announce_resolve_seconds" // histogram: duration of one resolve
	MetricReduceSeconds    = "prism_announce_reduce_seconds"  // histogram: duration of one cross-group final reduce
)

// LatencyBuckets is the shared fixed-bucket layout for latency
// histograms: 100µs to 10s, roughly ×2.5 per step — wide enough for a
// cold disk fetch, fine enough to see a p99 shift on the RPC plane.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the shared layout for byte-size histograms: 256 B to
// 64 MiB (the transport frame cap's order of magnitude), ×4 per step.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}
