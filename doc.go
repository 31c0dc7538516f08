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
// System.PSI and friends, their per-owner forms (Owner.PSI, ...), and
// the scheduler entry points QueryAsync/QueryBatch — is safe to call
// concurrently with every other, including SetServerThreads
// reconfiguration while queries are in flight. Config.MaxInflight, the
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
// owner can be queried via Owner's methods or Request.PinOwner. The
// scheduler bounds concurrently executing queries to Config.MaxInflight
// (default GOMAXPROCS), resizable at runtime:
//
//	fut := sys.QueryAsync(ctx, prism.Request{Op: prism.OpPSISum, Cols: []string{"cost"}})
//	resps := sys.QueryBatch(ctx, reqs) // positional, per-query errors
//
// # Transport
//
// TCP deployments (cmd/prism-server and friends) speak a multiplexed
// RPC framing: every frame — a small gob envelope followed by the
// message's share vectors as raw width-packed slabs — carries a request
// id, one persistent connection per peer carries any number of
// concurrent calls, and servers dispatch each decoded request to a bounded per-connection
// worker pool, so replies return as they complete — a cheap PSI round
// is never stuck behind a slow aggregation on the same wire.
// The pipelining depth per connection is bounded (prism-server/-owner
// -inflight; the in-process fabric applies the transport's default
// bound per server address so local behaviour matches a wire
// deployment). Disk-backed servers can
// additionally enable a per-table hot-chunk cache (Config.HotChunks, a
// byte budget; 0 is off): column chunks are read from the share store
// once per table epoch — invalidated when any
// owner re-outsources — instead of once per query.
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
// half-uploaded epoch. With disk-backed servers set a HotChunks budget
// alongside small windows (each window reads its chunks through the
// per-epoch cache). The prism-bench domainscale experiment measures
// queries/sec and peak frame size at both window sizes.
//
// # Storage
//
// Disk-backed servers (Config.DiskDir) persist each column as
// fixed-size chunk segments plus a per-column chunk index
// (internal/sharestore): chunks are written atomically with their own
// CRCs, and ranged reads touch only the chunks overlapping the window;
// this is the only column format. An upload streams every incoming window
// straight to pending chunked columns and promotes them on completion
// (register-on-complete, recorded in the table manifest), and
// per-window query evaluation fetches only the overlapping chunks —
// with Config.ChunkCells aligned to Config.ShardCells and a
// Config.HotChunks cache budget, server resident memory during both
// outsourcing and querying is bounded by the chunk size and the budget,
// not the domain, so columns larger than RAM serve end to end.
// Upload assemblies abandoned by crashed owners are reclaimed when the
// owner retries or the table is dropped (prism-server -pendttl adds a
// timed sweep). The prism-bench memscale experiment measures peak
// server resident bytes and queries/sec in both serving modes and
// cross-checks their result fingerprints.
//
// # Durability and recovery
//
// The chunked store is durable end to end, and a restarted disk-backed
// server no longer boots empty: every registration is recorded in an
// atomically written per-table manifest (spec, completed owners, format
// version, registration epoch), and Config.AutoRecover (CLI:
// prism-server -recover) makes a restarting server scan the store,
// validate each manifest against the chunk indexes actually on disk —
// element widths, cell counts, every chunk segment present, CRC
// spot-checks — and re-register complete tables into the serving path.
// Queries then return exactly what they returned before the restart,
// with no owner re-outsourcing. Tables that fail validation are
// quarantined (moved under the store's .quarantine/ area with a
// machine-readable reason, data preserved) rather than served or
// crashing boot; interrupted upload promotions are resumed and adopted;
// assemblies from owners that crashed mid-upload are reclaimed so a
// retry starts clean. Owners probe a restarted deployment cheaply with
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
// each accepted update to a per-table delta log of CRC'd, atomically
// written segments holding absolute replacement values — replay is
// idempotent, an update is one segment — and answer queries by patching every
// fetched value through an in-memory overlay of the log, so reads see
// base + deltas immediately. A compactor (Config.DeltaMaxEntries
// threshold, Config.CompactInterval ticker, or System.CompactTables)
// folds the log into the base chunks, bumps the table epoch, and only
// then deletes segments; idempotent replay makes every crash point
// between those steps recoverable, and cold-boot recovery replays the
// surviving log over the surviving base (torn segments quarantine the
// table). The repo benchmark's update-read workload (benchmark/)
// measures update cost and compaction next to the reads that race them.
//
// See examples/ for complete programs, docs/ARCHITECTURE.md for the
// layer map, storage format and protocol details, and docs/OPERATIONS.md
// for deployment, flags, the restart runbook and the benchmark
// experiments.
package prism
