// Package prism is a from-scratch Go implementation of Prism (Li et al.,
// SIGMOD 2021): private, verifiable set computation — intersection, union,
// and summary/exemplary aggregations — over outsourced databases owned by
// multiple mutually-distrusting parties.
//
// # Model
//
// m DB owners secret-share domain bitmaps of a common attribute to a set
// of non-communicating servers (two additive-share servers plus one extra
// Shamir-share server). Servers evaluate queries homomorphically without
// learning inputs, outputs, access patterns or output sizes; owners
// recombine replies locally. Every operator completes in at most two
// rounds of owner↔server communication — find the result set, aggregate
// over it — verified or not: the §5.2 vector that proves a round's
// answer rides that round's own messages, so verification adds bytes,
// not rounds (max/min/median add their announcer rounds, one more when
// the identity of the holder is requested). Servers never talk to each
// other. A designated announcer participates only in max/min/median
// queries, and result verification detects malicious servers.
//
// # Quick start
//
//	dom, _ := prism.ValueDomain("Cancer", "Fever", "Heart")
//	sys, _ := prism.NewLocalSystem(prism.Config{
//		Owners:     3,
//		Domain:     dom,
//		AggColumns: []string{"cost"},
//		Verify:     true,
//	})
//	sys.Owner(0).Load([]prism.Row{{StrKey: "Cancer", Aggs: map[string]uint64{"cost": 100}}, ...})
//	// ... load owners 1, 2 ...
//	sys.OutsourceAll(ctx)
//	res, _ := sys.PSI(ctx)        // → {Cancer}
//	sum, _ := sys.PSISum(ctx, "cost")
//
// # Concurrency
//
// A System serves many queries simultaneously. Every query method —
// System.PSI and friends and the scheduler entry points
// QueryAsync/QueryBatch — is safe to call concurrently with every
// other, including SetServerThreads reconfiguration while queries are
// in flight. Config.MaxInflight, the
// scheduler's concurrency bound, is fixed when the System is built.
//
// The query lifecycle: a query mints a per-query session on its driving
// owner (a unique query id plus a private PRG for the query's share
// randomness), issues its rounds to the servers tagged with that qid,
// and recombines replies locally. Server-side, all multi-round scratch
// (max/min/median submissions, ownership claims, announcer results) is
// keyed by qid and retired when the query completes, so concurrent
// queries never share state. Stored tables are immutable snapshots;
// re-outsourcing swaps them atomically.
//
// System-level queries rotate round-robin across owners (results are
// owner-independent, so rotation never changes an answer); a specific
// owner can be queried via Request.PinOwner. The
// scheduler bounds concurrently executing queries to Config.MaxInflight
// (default GOMAXPROCS), resizable at runtime:
//
//	fut := sys.QueryAsync(ctx, prism.Request{Op: prism.OpPSISum, Cols: []string{"cost"}})
//	resps := sys.QueryBatch(ctx, reqs) // positional, per-query errors
//
// # Transport
//
// TCP deployments (cmd/prism-server and friends) speak a multiplexed
// RPC framing: every frame — a version byte, then the message in one
// binary codec with its share vectors width-packed — carries a request
// id, one persistent connection per peer carries any number of
// concurrent calls, and servers dispatch each decoded request to a bounded per-connection
// worker pool, so replies return as they complete — a cheap PSI round
// is never stuck behind a slow aggregation on the same wire.
// The pipelining depth per connection is bounded by
// transport.DefaultPerConnInflight on both ends, and the in-process
// fabric applies the same bound per server address so local behaviour
// matches a wire deployment. Every server keeps, per table epoch — invalidated when
// any owner re-outsources or an update is compacted — one owner sum of
// each queried column, built on the epoch's first read, so a disk-backed
// server reads each column chunk once per epoch, not once per query.
// The merge that corrects a sum for pending updates keeps the owner
// chunks it reads for the rest of the epoch too.
//
// # Domain sharding
//
// Every Prism exchange is O(b) in the domain size and moves as windows:
// Config.ShardCells is the window size of each one — table uploads,
// PSI/PSU/count vectors, aggregation selectors and replies — every
// window its own frame over the multiplexed transport (up to 8 in
// flight per query), with partial results merged incrementally
// owner-side. 0 (the default) → one window of b cells. With a smaller
// window, frame size and per-request buffers are bounded by it
// regardless of the domain, so domains whose b-cell frames would exceed
// transport.MaxFrameBytes become servable. Uploads register the table
// only once every window has arrived, so queries never observe a
// half-uploaded epoch. A query window, whatever its size, reads the
// owner sum its server keeps for the table epoch. TestShardedBeatsFrameCap shows a domain whose
// one-window upload exceeds a lowered frame cap answering correctly in
// small windows, on one server group and on two.
//
// # Storage
//
// Disk-backed servers (Config.DiskDir) persist each column as
// fixed-size chunk segments plus a per-column chunk index
// (internal/sharestore): chunks are written atomically with their own
// CRCs, and ranged reads touch only the chunks overlapping the window;
// this is the only column format. An upload streams every incoming window
// straight into the owner's other column slot and commits on completion
// with the manifest write naming that slot live (register-on-complete;
// nothing is renamed), and
// per-window query evaluation fetches only the overlapping chunks. The
// stores write Config.ShardCells-cell chunks, so every window is a
// whole number of chunks. Server resident memory while outsourcing is
// bounded by the window size, not the domain; while querying it is the
// owner sums — cells × the queried columns' widths per served table,
// 1/M of its columns — plus the window size and the owner chunks
// pending updates land in. Upload assemblies abandoned by crashed
// owners are reclaimed when the owner retries (prism-server -pendttl
// adds a timed sweep). Every server's peak
// resident column bytes are System.PeakServerHeldBytes, which the repo
// benchmark reports as peak_held_bytes.
//
// # Durability and recovery
//
// The chunked store is durable end to end, and a restarted disk-backed
// server never boots empty: every registration is recorded in an
// atomically written per-table manifest (spec, completed owners, format
// version, registration epoch), and every disk-backed server start (a
// System over an existing Config.DiskDir, prism-server -store) scans
// the store, validates each manifest against the chunk indexes actually
// on disk — element widths, cell counts, every chunk segment present,
// CRC spot-checks — and re-registers complete tables into the serving
// path.
// Queries then return exactly what they returned before the restart,
// with no owner re-outsourcing. Tables that fail validation are
// quarantined (moved under the store's .quarantine/ area with a
// machine-readable reason, data preserved) rather than served or
// crashing boot; columns of uploads that never reached their manifest
// write are reclaimed so a retry starts clean. Owners probe a restarted deployment cheaply with
// the ListTables RPC (prism-owner -op list): each server reports the
// tables it serves, their owners, and a registration epoch that
// survives restarts, so "still served", "re-registered since", and
// "re-outsourcing needed" are all distinguishable without moving a
// single column byte. The recovery state machine and the on-disk format
// are specified in docs/ARCHITECTURE.md; the operational runbook is
// docs/OPERATIONS.md.
//
// # Incremental updates
//
// A tuple-set change does not cost a full O(b) re-outsource:
// Owner.Update (CLI: prism-owner -op update) works out the cells the
// added and removed tuples touch, re-shares only those, and sends each
// server one StoreDelta request holding the whole change; it folds the
// change into the owner's own state only once every server has
// acknowledged, so a failed update leaves the owner untouched and is
// recovered by calling Update again with the same rows. Servers append
// each accepted update to a per-table delta log as one CRC'd record
// of absolute replacement values, written with one append — replay is
// idempotent, an update is one record — and answer queries by patching every
// fetched value through an in-memory overlay of the log, so reads see
// base + deltas immediately. A compactor (Config.DeltaMaxEntries
// threshold, prism-server's -compact ticker, or System.CompactTables)
// patches the logged cells into the base chunks in place, bumps the
// table epoch, and only then deletes the sealed log files; idempotent
// replay makes every crash point between those steps recoverable, and
// cold-boot recovery replays the surviving log over the surviving base
// (a torn last record is cut off; other damage quarantines the table). The repo benchmark's update-read workload (benchmark/)
// measures update cost and compaction next to the reads that race them.
//
// See examples/ for complete programs, docs/ARCHITECTURE.md for the
// layer map, storage format and protocol details, and docs/OPERATIONS.md
// for deployment, flags, the restart runbook and the benchmark
// experiments.
package prism
