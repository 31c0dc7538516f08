// Package serverengine implements a Prism server S_φ (paper §3.2 entity
// 2): it stores the secret-shared Table-11 columns outsourced by the m
// DB owners and evaluates queries obliviously — identical work per cell,
// no data-dependent branching — so access patterns and output sizes leak
// nothing (§3.4).
//
// The engine exposes the request/reply protocol of internal/protocol via
// transport.Handler. It never contacts another server; its only outbound
// calls go to the announcer S_a for max/min/median queries, exactly as
// the paper's trust model prescribes.
//
// Durability: a disk-backed engine (Options.Store + DiskBacked) keeps
// every column in the sharestore's chunked layout and records each
// completed registration in a per-table manifest (TableManifest: spec,
// completed owners, format version, registration epoch), written
// atomically only after the owner's columns are fully promoted to their
// live names. That manifest is what a restarted server trusts:
// Engine.Recover (Options.AutoRecover, prism-server -recover) scans the
// store, validates each manifest against the chunk indexes on disk, and
// re-registers complete tables — so a restart does not force owners to
// re-outsource. Tables that fail validation are quarantined into the
// store's .quarantine/ area with a machine-readable reason rather than
// served (or crashing boot); interrupted pending→live promotions are
// resumed; crashed mid-upload assemblies are reclaimed. See recover.go
// for the full state machine and docs/ARCHITECTURE.md for the on-disk
// format.
package serverengine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/sharestore"
	"prism/internal/transport"
)

// psuBlock is the fixed cell-block size for PSU mask derivation. Both
// servers derive rand[] per block from the shared seed, so the stream is
// identical regardless of each server's thread count.
const psuBlock = 1 << 16

// Options configures an engine.
type Options struct {
	// Threads is the worker-pool width for per-cell loops (Figure 3's
	// thread sweep). 0 means GOMAXPROCS.
	Threads int
	// Store, when non-nil and DiskBacked, holds columns on disk; queries
	// then fetch them per request and report real fetch times.
	Store      *sharestore.Store
	DiskBacked bool
	// CacheColumns enables the per-table hot-chunk cache for disk-backed
	// serving: χ-shares and uint64 aggregation columns are cached at
	// chunk granularity per table epoch (invalidated whenever a Store or
	// Drop changes the table) instead of read per query. Cache hits
	// report zero fetch time and count in Stats.CacheHits.
	CacheColumns bool
	// CacheBytes bounds the hot-chunk cache per table (bytes); <= 0
	// leaves the cache unbounded (the legacy whole-column hot cache
	// behaviour). Ignored unless CacheColumns is set.
	CacheBytes int64
	// PendingTTL reclaims sharded-upload assemblies whose owner stopped
	// sending shards (a crash mid-upload): assemblies untouched for
	// longer than the TTL are swept — RAM buffers released, pending disk
	// columns deleted — on the next Store request. 0 disables the sweep
	// (stale assemblies then linger until the owner retries or the table
	// is dropped).
	PendingTTL time.Duration
	// DeltaMax triggers an automatic compaction pass once a table's
	// delta overlay holds at least this many entries (prism-server
	// -deltamax). 0 disables the density trigger; the overlay then grows
	// until an explicit Compact or the CompactEvery ticker runs.
	DeltaMax int
	// CompactEvery runs a background compaction pass over every table at
	// this period (prism-server -compact). 0 disables the ticker; call
	// Engine.Close to stop it.
	CompactEvery time.Duration
	// AnnouncerAddr and Caller let the engine forward max/min/median
	// slot arrays to S_a.
	AnnouncerAddr string
	Caller        transport.Caller
	// AutoRecover makes New reload serving state from the disk store's
	// table manifests (see Engine.Recover) before the engine answers its
	// first request, so a restarted disk-backed server resumes serving
	// without any owner re-outsourcing. Recovery never fails boot:
	// tables that do not validate are quarantined and the report (and
	// any store-scan error) is available via RecoveryReport. Ignored
	// unless DiskBacked with a Store.
	AutoRecover bool
	// Group is the server group this engine belongs to in a multi-group
	// deployment (0 for single-group). Data-plane requests tagged for a
	// different group are rejected, and the group id is persisted in
	// table manifests so a restarted server cannot adopt another group's
	// shares.
	Group int
}

// Engine is one Prism server. All request handlers are safe for
// concurrent use: table columns are immutable once registered, the
// worker-pool width is read atomically, and every piece of multi-round
// query scratch lives in a qid-keyed session (never in engine-global
// state), so any number of queries can be in flight simultaneously.
type Engine struct {
	view *params.ServerView
	opts Options

	// threads is the worker-pool width, read atomically by the per-cell
	// loops so SetThreads can run while queries are in flight.
	threads atomic.Int64

	powTab   []uint64      // g^e mod η' for e ∈ [0, δ)
	modDelta modmath.Mod32 // division-free reduction mod δ

	mu     sync.RWMutex
	tables map[string]*table
	// epochFloor remembers the last registration epoch of tables this
	// process dropped, so a drop + re-outsource of the same name keeps
	// the epoch strictly increasing — an owner probing via ListTables
	// can never mistake the replacement for its original registration.
	// Guarded by mu; one uint64 per dropped name.
	epochFloor map[string]uint64

	// pending assembles sharded uploads (table → owner → partial
	// columns); a table epoch is registered only once every cell of
	// every column has arrived, so queries never see a half-upload.
	// storeMarks records the highest upload attempt seen per table and
	// owner so stragglers of an abandoned attempt are rejected instead
	// of clobbering a newer retry (see UploadID); Drop reclaims a
	// table's marks along with its pending assemblies, so neither map
	// grows with the server's lifetime table churn.
	pendMu     sync.Mutex
	pending    map[string]map[int]*pendingStore
	storeMarks map[string]map[int]uploadMark

	// s1inv/s2inv are the inverses of the server-side permutations,
	// materialised once on the first sharded Count/permuted-PSU request
	// (they index the permuted reply vectors by output position).
	s1invOnce, s2invOnce sync.Once
	s1inv, s2inv         perm.Perm

	sessMu   sync.Mutex
	sessions map[string]*querySession

	// storeMu serialises Stores per (table, owner) so two concurrent
	// conflicting uploads cannot interleave their unlocked disk spills;
	// different owners' uploads still proceed in parallel (they write
	// disjoint files).
	storeMuMu sync.Mutex
	storeMus  map[string]*sync.Mutex

	// manifestMu serialises per-table manifest read-modify-writes (two
	// owners completing uploads concurrently).
	manifestMu sync.Mutex

	// recovery holds the report (and scan error, if any) of the
	// AutoRecover pass New ran; nil when New did not recover.
	recovery    *RecoveryReport
	recoveryErr error

	// compactHook intercepts compaction ordering points (crash-recovery
	// tests); compactStop/compactDone manage the CompactEvery ticker.
	compactHookMu sync.Mutex
	compactHook   func(step string) error
	compactStop   chan struct{}
	compactDone   chan struct{}
	closeOnce     sync.Once

	// heldBytes/peakHeld track the column bytes this engine holds
	// resident: in-RAM pending upload assemblies, registered in-memory
	// tables, and the hot-chunk caches. The benchx memscale experiment
	// reads the peak to demonstrate O(chunk) residency under the chunked
	// store versus O(b) for in-memory serving.
	heldBytes atomic.Int64
	peakHeld  atomic.Int64
}

type table struct {
	spec   protocol.TableSpec
	owners map[int]*ownerCols
	// epoch counts registration events for this table (an owner
	// completing an upload, a recovery adoption). Disk-backed engines
	// persist it in the manifest, so it survives restarts and owners can
	// use ListTables to tell "still served" from "replaced since I last
	// probed".
	epoch uint64
	// cache is the current epoch's hot-chunk cache (nil unless
	// CacheColumns); every Store/Drop swaps in a fresh one, so queries
	// holding the old snapshot never see the new epoch's columns.
	cache *chunkCache
	// delta is the table's not-yet-compacted incremental updates (nil
	// until the first StoreDelta); deltaSeq is the last delta-log
	// sequence this process assigned; deltaFloor records, per owner, the
	// highest sequence superseded by a re-outsource (cold-boot replay
	// skips that owner's entries at or below it). compactMu serialises
	// compaction passes — Compact blocks behind an in-flight pass, so a
	// synchronous call is guaranteed to fold every entry inserted before
	// it; compacting just suppresses duplicate threshold-trigger
	// goroutines.
	delta      *deltaOverlay
	deltaSeq   uint64
	deltaFloor map[int]uint64
	compactMu  sync.Mutex
	compacting bool
}

// tableView is an immutable snapshot of one table taken under the engine
// lock: handlers work off the snapshot so a concurrent Store (another
// owner registering, a re-outsource) can never race the query's reads.
type tableView struct {
	spec   protocol.TableSpec
	owners []*ownerCols  // dense, index = owner id
	cache  *chunkCache   // the epoch's cache at snapshot time (may be nil)
	delta  *deltaOverlay // the delta overlay at snapshot time (may be nil)
}

type ownerCols struct {
	chi    []uint16
	chibar []uint16
	sums   map[string][]uint64
	vsums  map[string][]uint64
	cnt    []uint64
	vcnt   []uint64
	onDisk bool
}

// querySession holds every piece of server-side state for one in-flight
// multi-round query, keyed by qid. Each session has its own lock, so
// concurrent queries neither contend nor interfere; QueryDone retires
// the session.
type querySession struct {
	mu    sync.Mutex
	ext   *extremeState
	claim *claimState
}

type extremeState struct {
	kind      protocol.ExtremeKind
	shares    [][]byte
	got       int
	forwarded bool
	result    *protocol.AnnounceFetchReply
}

type claimState struct {
	fpos []uint16
	got  map[int]bool
}

// pendingStore is one owner's in-progress sharded upload, with the
// received windows tracked so overlapping or duplicate shards are
// rejected instead of silently overwriting cells. id is the attempt's
// UploadID — a shard from a newer attempt supersedes the whole assembly,
// so a retry after a failed upload never collides with its own stale
// windows.
//
// In-memory engines assemble into full-length columns (oc). Disk-backed
// engines instead stream every window straight into pending chunked
// columns ("pend<owner>.*") and rename them into place on completion, so
// a sharded upload never holds more than one window's cells in RAM —
// register-on-complete is preserved by the rename plus the table
// manifest, and queries never observe a half-uploaded column.
type pendingStore struct {
	id      string
	spec    protocol.TableSpec
	owner   int
	oc      *ownerCols // RAM assembly; nil when streaming to disk
	disk    bool       // windows stream to pending disk columns
	got     []protocol.Range
	covered uint64
	touched time.Time // last shard arrival, for the TTL sweep
}

// uploadMark is the newest upload attempt observed for one
// (table, owner): attempts of the same epoch with a lower seq are
// stale (abandoned and already superseded) and rejected.
type uploadMark struct {
	epoch string
	seq   uint64
}

// parseUploadID splits an "<epoch>/<seq>" upload id. ok is false for
// ids that don't follow the ordered format (foreign clients); those
// fall back to plain last-attempt-supersedes semantics.
func parseUploadID(id string) (epoch string, seq uint64, ok bool) {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return id[:i], seq, true
}

// colDef names one on-disk column of a table layout (without the
// "o<owner>." prefix) and its element width in bytes.
type colDef struct {
	name  string
	width int
}

// specCols enumerates the columns this server stores per owner under a
// table spec, in a deterministic order.
func (e *Engine) specCols(spec protocol.TableSpec) []colDef {
	var out []colDef
	if e.view.Index < 2 {
		out = append(out, colDef{"chi", 2})
		if spec.HasVerify {
			out = append(out, colDef{"chibar", 2})
		}
	}
	for _, col := range spec.AggCols {
		out = append(out, colDef{"sum." + col, 8})
		if spec.HasVerify {
			out = append(out, colDef{"vsum." + col, 8})
		}
	}
	if spec.HasCount {
		out = append(out, colDef{"cnt", 8})
		if spec.HasVerify {
			out = append(out, colDef{"vcnt", 8})
		}
	}
	return out
}

// colKey is the on-disk column name for one owner's column.
func colKey(owner int, col string) string { return fmt.Sprintf("o%d.%s", owner, col) }

// pendColKey is the pending (streaming upload) name of the same column.
func pendColKey(owner int, col string) string { return fmt.Sprintf("pend%d.%s", owner, col) }

// ManifestVersion is the current TableManifest format version. Version
// 0 manifests (written before the field existed) decode identically and
// are accepted by Recover; manifests from a newer format are quarantined
// rather than guessed at.
const ManifestVersion = 1

// TableManifest is the durable registration record a disk-backed server
// writes once an owner's upload completes: the table layout plus which
// owners have fully outsourced, a format version, and the registration
// epoch (bumped on every registration event, so owners probing via
// ListTables can distinguish "still served" from "re-registered since").
// Streamed shard windows live under pending column names until the
// manifest-covered rename, so a restarted server reloading from disk can
// trust every "o<j>.*" column the manifest vouches for.
type TableManifest struct {
	Version int
	Epoch   uint64
	Spec    protocol.TableSpec
	Owners  []int
	// DeltaFloor records, per owner, the highest delta-log sequence
	// superseded by a later full re-outsource: cold-boot replay skips
	// that owner's entries at or below the floor (they describe the
	// previous share stream). Absent for tables that never mixed deltas
	// with a re-outsource; older manifests decode with a nil map.
	DeltaFloor map[int]uint64 `json:",omitempty"`
	// Group is the server group that wrote the manifest. Recovery
	// quarantines a manifest from another group rather than serving its
	// shares (they cover a different domain slice). Absent in manifests
	// written by single-group deployments, which decode as group 0.
	Group int `json:",omitempty"`
}

// ocBytes is the resident size of an in-memory column set (0 for nil or
// spilled-to-disk sets).
func ocBytes(oc *ownerCols) int64 {
	if oc == nil {
		return 0
	}
	n := 2 * (int64(len(oc.chi)) + int64(len(oc.chibar)))
	for _, v := range oc.sums {
		n += 8 * int64(len(v))
	}
	for _, v := range oc.vsums {
		n += 8 * int64(len(v))
	}
	n += 8 * (int64(len(oc.cnt)) + int64(len(oc.vcnt)))
	return n
}

// trackHeld adjusts the held-bytes gauge and its peak.
func (e *Engine) trackHeld(delta int64) {
	cur := e.heldBytes.Add(delta)
	for {
		peak := e.peakHeld.Load()
		if cur <= peak || e.peakHeld.CompareAndSwap(peak, cur) {
			break
		}
	}
	site := e.site()
	mHeldBytes.Set(site, cur)
	mPeakHeldBytes.Set(site, e.peakHeld.Load())
}

// HeldBytes reports the column bytes currently resident (pending
// assemblies, in-memory tables, hot-chunk caches).
func (e *Engine) HeldBytes() int64 { return e.heldBytes.Load() }

// PeakHeldBytes reports the high-water mark of HeldBytes since the last
// ResetHeldPeak.
func (e *Engine) PeakHeldBytes() int64 { return e.peakHeld.Load() }

// ResetHeldPeak restarts the peak measurement from the current level.
func (e *Engine) ResetHeldPeak() { e.peakHeld.Store(e.heldBytes.Load()) }

// PendingUploads reports the number of in-progress sharded-upload
// assemblies (tests and monitoring).
func (e *Engine) PendingUploads() int {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	n := 0
	for _, byOwner := range e.pending {
		n += len(byOwner)
	}
	return n
}

// New builds an engine for server view v.
func New(v *params.ServerView, opts Options) *Engine {
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		view:       v,
		opts:       opts,
		powTab:     modmath.PowTable(v.G, v.Delta, v.EtaPrime),
		modDelta:   modmath.NewMod32(v.Delta),
		tables:     make(map[string]*table),
		epochFloor: make(map[string]uint64),
		pending:    make(map[string]map[int]*pendingStore),
		storeMarks: make(map[string]map[int]uploadMark),
		sessions:   make(map[string]*querySession),
		storeMus:   make(map[string]*sync.Mutex),
	}
	e.threads.Store(int64(opts.Threads))
	if opts.AutoRecover && opts.DiskBacked && opts.Store != nil {
		e.recovery, e.recoveryErr = e.Recover()
	}
	if opts.CompactEvery > 0 {
		e.startCompactor(opts.CompactEvery)
	}
	return e
}

// RecoveryReport returns the outcome of the AutoRecover pass New ran
// (nil when the engine was not built with Options.AutoRecover). The
// error reports a store-scan failure; per-table problems never error —
// they quarantine the table and show up in the report.
func (e *Engine) RecoveryReport() (*RecoveryReport, error) {
	return e.recovery, e.recoveryErr
}

// SetThreads adjusts the worker-pool width (thread-sweep benchmarks and
// live reconfiguration). Safe to call while queries are in flight: loops
// already running finish at their old width, subsequent loops use n.
func (e *Engine) SetThreads(n int) {
	if n > 0 {
		e.threads.Store(int64(n))
	}
}

// session returns (creating if needed) the state bundle for a query id.
func (e *Engine) session(qid string) *querySession {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	s, ok := e.sessions[qid]
	if !ok {
		s = &querySession{}
		e.sessions[qid] = s
	}
	return s
}

// peekSession returns the session for qid without creating one.
func (e *Engine) peekSession(qid string) (*querySession, bool) {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	s, ok := e.sessions[qid]
	return s, ok
}

// endSession drops all state for a query id.
func (e *Engine) endSession(qid string) {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	delete(e.sessions, qid)
}

// Sessions reports the number of live query sessions (tests and
// monitoring).
func (e *Engine) Sessions() int {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	return len(e.sessions)
}

// Group reports the server group this engine serves.
func (e *Engine) Group() int { return e.opts.Group }

// requestGroup extracts the group tag from data-plane requests. The
// second return is false for messages that carry no group routing
// (fetch polls and lifecycle cleanup follow an already-validated
// submit, so they pass untagged).
func requestGroup(req any) (int, bool) {
	switch r := req.(type) {
	case protocol.StoreRequest:
		return r.Group, true
	case protocol.StoreDeltaRequest:
		return r.Group, true
	case protocol.PSIRequest:
		return r.Group, true
	case protocol.PSIVerifyRequest:
		return r.Group, true
	case protocol.CountRequest:
		return r.Group, true
	case protocol.PSURequest:
		return r.Group, true
	case protocol.AggRequest:
		return r.Group, true
	case protocol.ExtremeSubmitRequest:
		return r.Group, true
	case protocol.ClaimSubmitRequest:
		return r.Group, true
	}
	return 0, false
}

// Handle implements transport.Handler.
func (e *Engine) Handle(ctx context.Context, req any) (any, error) {
	if g, ok := requestGroup(req); ok && g != e.opts.Group {
		return nil, fmt.Errorf("server %d (group %d): request targets group %d", e.view.Index, e.opts.Group, g)
	}
	switch r := req.(type) {
	case protocol.StoreRequest:
		return e.handleStore(r)
	case protocol.StoreDeltaRequest:
		return e.handleStoreDelta(r)
	case protocol.DropRequest:
		return e.handleDrop(r)
	case protocol.PSIRequest:
		return e.handlePSI(r)
	case protocol.PSIVerifyRequest:
		return e.handlePSIVerify(r)
	case protocol.CountRequest:
		return e.handleCount(r)
	case protocol.PSURequest:
		return e.handlePSU(r)
	case protocol.AggRequest:
		return e.handleAgg(r)
	case protocol.ExtremeSubmitRequest:
		return e.handleExtremeSubmit(ctx, r)
	case protocol.ExtremeFetchRequest:
		return e.handleExtremeFetch(ctx, r)
	case protocol.ClaimSubmitRequest:
		return e.handleClaimSubmit(r)
	case protocol.ClaimFetchRequest:
		return e.handleClaimFetch(r)
	case protocol.ListTablesRequest:
		return e.handleListTables(), nil
	case protocol.PingRequest:
		return e.handlePing(r)
	case protocol.QueryDoneRequest:
		e.endSession(r.QueryID)
		return protocol.QueryDoneReply{}, nil
	default:
		return nil, fmt.Errorf("server %d: unknown request type %T", e.view.Index, req)
	}
}

// handlePing answers the liveness probe. It deliberately reads no table
// or session state: a ping must stay cheap and side-effect-free under
// overload, when health checkers probe hardest.
func (e *Engine) handlePing(protocol.PingRequest) (any, error) {
	defer e.observeRPC("ping")()
	return protocol.PingReply{Site: e.site()}, nil
}

// ---- storage ----

func (e *Engine) handleStore(r protocol.StoreRequest) (any, error) {
	defer e.observeRPC("store")()
	if e.opts.PendingTTL > 0 {
		e.sweepPending(time.Now())
	}
	if r.Owner < 0 || r.Owner >= e.view.M {
		return nil, fmt.Errorf("server %d: owner index %d out of range [0,%d)", e.view.Index, r.Owner, e.view.M)
	}
	b := r.Spec.B
	if !r.Spec.Plain && b != e.view.B {
		return nil, fmt.Errorf("server %d: table %q has %d cells, system domain is %d", e.view.Index, r.Spec.Name, b, e.view.B)
	}
	n := b // cells carried by this request
	if r.Shard.Sharded() {
		if err := r.Shard.Validate(b); err != nil {
			return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
		}
		n = r.Shard.Count
	}
	if err := e.checkStoreLens(&r, n); err != nil {
		return nil, err
	}

	// One upload at a time per (table, owner): the spill below runs
	// outside the engine lock, and two interleaved conflicting uploads
	// from the same owner would otherwise mix their bytes on disk.
	// Sharded uploads serialise their shard copies on the same lock.
	mu := e.storeLock(fmt.Sprintf("%s/%d", r.Spec.Name, r.Owner))
	mu.Lock()
	defer mu.Unlock()

	// Reject a conflicting re-store before anything touches disk: a
	// spill for a table with a different cell count would overwrite the
	// owner's on-disk columns with wrong-length data while queries keep
	// serving the registered spec.
	e.mu.Lock()
	err := e.storeConflict(r.Spec)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}

	if r.Shard.Sharded() {
		oc, covered, err := e.absorbShard(&r)
		if err != nil {
			return nil, err
		}
		if oc == nil {
			return protocol.StoreReply{Cells: covered}, nil // more shards to come
		}
		return e.finishStore(r.Spec, r.Owner, oc)
	}

	return e.finishStore(r.Spec, r.Owner, &ownerCols{
		chi:    r.ChiAdd,
		chibar: r.ChiBarAdd,
		sums:   r.SumCols,
		vsums:  r.VSumCols,
		cnt:    r.CountCol,
		vcnt:   r.VCountCol,
	})
}

// checkStoreLens validates that every column the spec calls for carries
// exactly n cells (the whole table, or one shard's window).
func (e *Engine) checkStoreLens(r *protocol.StoreRequest, n uint64) error {
	if e.view.Index < 2 {
		if uint64(len(r.ChiAdd)) != n {
			return fmt.Errorf("server %d: χ share length %d != %d cells", e.view.Index, len(r.ChiAdd), n)
		}
		if r.Spec.HasVerify && uint64(len(r.ChiBarAdd)) != n {
			return fmt.Errorf("server %d: χ̄ share length %d != %d cells", e.view.Index, len(r.ChiBarAdd), n)
		}
	}
	for _, col := range r.Spec.AggCols {
		if uint64(len(r.SumCols[col])) != n {
			return fmt.Errorf("server %d: column %q share length mismatch", e.view.Index, col)
		}
		if r.Spec.HasVerify && uint64(len(r.VSumCols[col])) != n {
			return fmt.Errorf("server %d: v-column %q share length mismatch", e.view.Index, col)
		}
	}
	if r.Spec.HasCount && uint64(len(r.CountCol)) != n {
		return fmt.Errorf("server %d: count column length mismatch", e.view.Index)
	}
	if r.Spec.HasCount && r.Spec.HasVerify && uint64(len(r.VCountCol)) != n {
		return fmt.Errorf("server %d: v-count column length mismatch", e.view.Index)
	}
	return nil
}

// storeConflict rejects a (re-)store whose cell count disagrees with the
// registered table. Caller holds e.mu.
func (e *Engine) storeConflict(spec protocol.TableSpec) error {
	if t, ok := e.tables[spec.Name]; ok && t.spec.B != spec.B {
		return fmt.Errorf("server %d: table %q cell-count conflict", e.view.Index, spec.Name)
	}
	return nil
}

// absorbShard folds one shard's column windows into the owner's pending
// upload, creating it on the first shard. In-memory engines copy the
// window into full-length RAM columns; disk-backed engines stream it
// straight into pending chunked columns so resident memory stays
// O(window) regardless of the domain. It returns the assembled columns
// once every cell has arrived (nil while incomplete), plus the covered
// cell count. Caller holds the (table, owner) store lock.
func (e *Engine) absorbShard(r *protocol.StoreRequest) (*ownerCols, uint64, error) {
	stream := e.opts.DiskBacked && e.opts.Store != nil
	e.pendMu.Lock()
	byOwner := e.pending[r.Spec.Name]
	var p *pendingStore
	if byOwner != nil {
		p = byOwner[r.Owner]
	}
	if epoch, seq, okID := parseUploadID(r.UploadID); okID {
		// Reject stragglers of an attempt the owner already abandoned or
		// completed: over a real network, cancelled requests can still
		// execute server-side after the owner has started (or finished)
		// a retry, and must neither reset a newer assembly, re-register
		// stale columns, nor re-create a full-size assembly from a
		// duplicate of an attempt that already completed. (Attempts from
		// different epochs — an owner restart — cannot be ordered and
		// resolve last-writer-wins; colliding with a restarted owner's
		// stragglers fails that upload loudly, and its next attempt
		// succeeds once they drain.)
		marks := e.storeMarks[r.Spec.Name]
		if marks == nil {
			marks = make(map[int]uploadMark)
			e.storeMarks[r.Spec.Name] = marks
		}
		if m, have := marks[r.Owner]; have && m.epoch == epoch &&
			(seq < m.seq || (seq == m.seq && (p == nil || p.id != r.UploadID))) {
			e.pendMu.Unlock()
			return nil, 0, fmt.Errorf("server %d: table %q upload attempt %q superseded or already completed", e.view.Index, r.Spec.Name, r.UploadID)
		}
		marks[r.Owner] = uploadMark{epoch: epoch, seq: seq}
	}
	fresh := false
	var replaced *pendingStore
	if p == nil || p.id != r.UploadID {
		// First shard, or a fresh attempt superseding a stale assembly
		// left behind by a failed/cancelled upload.
		replaced = p
		p = &pendingStore{id: r.UploadID, spec: r.Spec, owner: r.Owner, disk: stream}
		if byOwner == nil {
			byOwner = make(map[int]*pendingStore)
			e.pending[r.Spec.Name] = byOwner
		}
		byOwner[r.Owner] = p
		fresh = true
	}
	p.touched = time.Now()
	e.pendMu.Unlock()

	if replaced != nil && replaced.oc != nil {
		e.trackHeld(-ocBytes(replaced.oc)) // superseded RAM assembly released
	}
	if !specEqual(p.spec, r.Spec) {
		return nil, 0, fmt.Errorf("server %d: table %q shard spec differs from first shard", e.view.Index, r.Spec.Name)
	}
	for _, g := range p.got {
		if r.Shard.Offset < g.End() && g.Offset < r.Shard.End() {
			return nil, 0, fmt.Errorf("server %d: table %q shard [%d, %d) overlaps received [%d, %d)",
				e.view.Index, r.Spec.Name, r.Shard.Offset, r.Shard.End(), g.Offset, g.End())
		}
	}
	if fresh {
		if stream {
			// Initialise the pending chunked columns (replacing any left
			// by a superseded attempt).
			for _, cd := range e.specCols(r.Spec) {
				name := pendColKey(r.Owner, cd.name)
				var err error
				if cd.width == 2 {
					err = e.opts.Store.CreateU16(r.Spec.Name, name, r.Spec.B)
				} else {
					err = e.opts.Store.CreateU64(r.Spec.Name, name, r.Spec.B)
				}
				if err != nil {
					return nil, 0, err
				}
			}
		} else {
			p.oc = e.newPendingCols(r.Spec)
			e.trackHeld(ocBytes(p.oc))
		}
	}

	if p.disk {
		if err := e.writePendingWindow(r); err != nil {
			return nil, 0, err
		}
	} else {
		off := r.Shard.Offset
		oc := p.oc
		if oc.chi != nil {
			copy(oc.chi[off:], r.ChiAdd)
		}
		if oc.chibar != nil {
			copy(oc.chibar[off:], r.ChiBarAdd)
		}
		for _, col := range r.Spec.AggCols {
			copy(oc.sums[col][off:], r.SumCols[col])
			if r.Spec.HasVerify {
				copy(oc.vsums[col][off:], r.VSumCols[col])
			}
		}
		if oc.cnt != nil {
			copy(oc.cnt[off:], r.CountCol)
		}
		if oc.vcnt != nil && r.VCountCol != nil {
			copy(oc.vcnt[off:], r.VCountCol)
		}
	}
	// Refresh the idle clock now that the window has been absorbed: a
	// slow-but-live writer whose windows take a long time to land (large
	// shards, slow disk) must not have the write time itself consume its
	// idle budget.
	e.pendMu.Lock()
	p.touched = time.Now()
	e.pendMu.Unlock()
	p.got = append(p.got, r.Shard)
	p.covered += r.Shard.Count
	if p.covered < r.Spec.B {
		return nil, p.covered, nil
	}

	// Complete: retire the pending entry; the caller registers the
	// columns.
	e.pendMu.Lock()
	delete(byOwner, r.Owner)
	if len(byOwner) == 0 {
		delete(e.pending, r.Spec.Name)
	}
	e.pendMu.Unlock()
	if p.disk {
		// Promote the pending columns to their live names; only now can
		// a query (or a restarted server following the manifest) see
		// them.
		for _, cd := range e.specCols(r.Spec) {
			if err := e.opts.Store.RenameColumn(r.Spec.Name, pendColKey(r.Owner, cd.name), colKey(r.Owner, cd.name)); err != nil {
				return nil, 0, err
			}
		}
		return &ownerCols{onDisk: true}, p.covered, nil
	}
	e.trackHeld(-ocBytes(p.oc)) // hand-off: finishStore re-accounts it as a registered table
	return p.oc, p.covered, nil
}

// writePendingWindow streams one shard's column windows into the pending
// chunked columns. Caller holds the (table, owner) store lock.
func (e *Engine) writePendingWindow(r *protocol.StoreRequest) error {
	st := e.opts.Store
	tbl := r.Spec.Name
	off := r.Shard.Offset
	if e.view.Index < 2 {
		if err := st.WriteU16Range(tbl, pendColKey(r.Owner, "chi"), off, r.ChiAdd); err != nil {
			return err
		}
		if r.Spec.HasVerify {
			if err := st.WriteU16Range(tbl, pendColKey(r.Owner, "chibar"), off, r.ChiBarAdd); err != nil {
				return err
			}
		}
	}
	for _, col := range r.Spec.AggCols {
		if err := st.WriteU64Range(tbl, pendColKey(r.Owner, "sum."+col), off, r.SumCols[col]); err != nil {
			return err
		}
		if r.Spec.HasVerify {
			if err := st.WriteU64Range(tbl, pendColKey(r.Owner, "vsum."+col), off, r.VSumCols[col]); err != nil {
				return err
			}
		}
	}
	if r.Spec.HasCount {
		if err := st.WriteU64Range(tbl, pendColKey(r.Owner, "cnt"), off, r.CountCol); err != nil {
			return err
		}
		if r.Spec.HasVerify {
			if err := st.WriteU64Range(tbl, pendColKey(r.Owner, "vcnt"), off, r.VCountCol); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepPending reclaims sharded-upload assemblies whose last shard
// arrived more than Options.PendingTTL ago — the owner crashed or gave
// up mid-upload. RAM assemblies release their buffers; streamed
// assemblies delete their pending disk columns. Assemblies whose
// (table, owner) store lock is busy are skipped (that upload is alive).
// Returns the number of assemblies swept.
func (e *Engine) sweepPending(now time.Time) int {
	ttl := e.opts.PendingTTL
	if ttl <= 0 {
		return 0
	}
	mPendingSweeps.Inc()
	type victim struct {
		table string
		owner int
		p     *pendingStore
	}
	e.pendMu.Lock()
	var victims []victim
	for tbl, byOwner := range e.pending {
		for owner, p := range byOwner {
			if now.Sub(p.touched) > ttl {
				victims = append(victims, victim{tbl, owner, p})
			}
		}
	}
	e.pendMu.Unlock()
	swept := 0
	for _, v := range victims {
		mu := e.storeLock(fmt.Sprintf("%s/%d", v.table, v.owner))
		if !mu.TryLock() {
			continue // a live upload holds the lock; not stale after all
		}
		e.pendMu.Lock()
		cur := e.pending[v.table][v.owner]
		// Re-check the idle time under the lock: a shard that landed
		// while this sweep scanned other victims refreshed touched and
		// resets the budget.
		stale := cur == v.p && now.Sub(cur.touched) > ttl
		if stale {
			delete(e.pending[v.table], v.owner)
			if len(e.pending[v.table]) == 0 {
				delete(e.pending, v.table)
			}
		}
		e.pendMu.Unlock()
		if stale {
			if v.p.oc != nil {
				e.trackHeld(-ocBytes(v.p.oc))
			}
			if v.p.disk {
				for _, cd := range e.specCols(v.p.spec) {
					e.opts.Store.DeleteColumn(v.table, pendColKey(v.owner, cd.name))
				}
			}
			swept++
		}
		mu.Unlock()
	}
	mPendingReclaimed.Add(int64(swept))
	return swept
}

// newPendingCols allocates full-length columns for the table layout this
// server holds under spec.
func (e *Engine) newPendingCols(spec protocol.TableSpec) *ownerCols {
	b := spec.B
	oc := &ownerCols{}
	if e.view.Index < 2 {
		oc.chi = make([]uint16, b)
		if spec.HasVerify {
			oc.chibar = make([]uint16, b)
		}
	}
	if len(spec.AggCols) > 0 {
		oc.sums = make(map[string][]uint64, len(spec.AggCols))
		if spec.HasVerify {
			oc.vsums = make(map[string][]uint64, len(spec.AggCols))
		}
		for _, col := range spec.AggCols {
			oc.sums[col] = make([]uint64, b)
			if spec.HasVerify {
				oc.vsums[col] = make([]uint64, b)
			}
		}
	}
	if spec.HasCount {
		oc.cnt = make([]uint64, b)
		if spec.HasVerify {
			oc.vcnt = make([]uint64, b)
		}
	}
	return oc
}

// specEqual compares the table layouts of two shards.
func specEqual(a, b protocol.TableSpec) bool {
	if a.Name != b.Name || a.B != b.B || a.HasVerify != b.HasVerify ||
		a.HasCount != b.HasCount || a.Plain != b.Plain || len(a.AggCols) != len(b.AggCols) {
		return false
	}
	for i := range a.AggCols {
		if a.AggCols[i] != b.AggCols[i] {
			return false
		}
	}
	return true
}

// finishStore spills (disk mode) and registers one owner's assembled
// columns as the table's current epoch. Caller holds the (table, owner)
// store lock.
func (e *Engine) finishStore(spec protocol.TableSpec, owner int, oc *ownerCols) (any, error) {
	// Spill to disk BEFORE registering: once an ownerCols is visible in
	// the table map it is immutable, so concurrent queries can read it
	// without holding the engine lock. Streamed sharded uploads arrive
	// already on disk (oc.onDisk) and skip the spill.
	if e.opts.DiskBacked && e.opts.Store != nil && !oc.onDisk {
		if err := e.spill(spec.Name, owner, oc); err != nil {
			return nil, err
		}
	}

	e.mu.Lock()
	// Re-check: a concurrent Store may have created the table while the
	// spill ran unlocked.
	if err := e.storeConflict(spec); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	t, ok := e.tables[spec.Name]
	if !ok {
		t = &table{spec: spec, owners: make(map[int]*ownerCols), epoch: e.epochFloor[spec.Name]}
		e.tables[spec.Name] = t
	}
	e.trackHeld(ocBytes(oc) - ocBytes(t.owners[owner]))
	t.owners[owner] = oc
	t.epoch++
	if t.delta != nil {
		// A full re-outsource replaces this owner's base wholesale: its
		// pending delta entries describe the previous share stream and
		// must not patch the new columns.
		e.trackHeld(-t.delta.dropOwner(owner))
	}
	if t.deltaSeq > 0 && e.opts.DiskBacked && e.opts.Store != nil {
		// Likewise fence the owner's on-disk delta segments out of
		// cold-boot replay (the floor is persisted in the manifest).
		if t.deltaFloor == nil {
			t.deltaFloor = make(map[int]uint64)
		}
		t.deltaFloor[owner] = t.deltaSeq
	}
	if e.opts.CacheColumns && e.opts.DiskBacked {
		// New table epoch: invalidate hot chunks (release their bytes).
		if t.cache != nil {
			t.cache.discard()
		}
		t.cache = newChunkCache(e.opts.CacheBytes, e.trackHeld)
	}
	e.mu.Unlock()

	if e.opts.DiskBacked && e.opts.Store != nil {
		// Durable registration record: written only after the owner's
		// columns are fully assembled and promoted to their live names.
		// The registration snapshot is taken while holding manifestMu, so
		// concurrent completions serialise snapshot-then-write in order
		// and a stale snapshot can never overwrite a newer manifest.
		if err := e.writeManifestSnapshot(spec.Name, spec); err != nil {
			return nil, err
		}
	}
	return protocol.StoreReply{Cells: spec.B}, nil
}

// storeLock returns the upload mutex for a (table, owner) key.
func (e *Engine) storeLock(key string) *sync.Mutex {
	e.storeMuMu.Lock()
	defer e.storeMuMu.Unlock()
	mu, ok := e.storeMus[key]
	if !ok {
		mu = &sync.Mutex{}
		e.storeMus[key] = mu
	}
	return mu
}

// handleListTables reports the tables this server currently serves:
// name/layout, the owners that have completed outsourcing, and the
// registration epoch. Owners use it to probe a restarted server's state
// without re-outsourcing; the reply is sorted by table name so probes
// are comparable across servers.
func (e *Engine) handleListTables() protocol.ListTablesReply {
	e.mu.RLock()
	tables := make([]protocol.TableStatus, 0, len(e.tables))
	for _, t := range e.tables {
		st := protocol.TableStatus{Spec: t.spec, Epoch: t.epoch}
		for j := range t.owners {
			st.Owners = append(st.Owners, j)
		}
		sort.Ints(st.Owners)
		tables = append(tables, st)
	}
	e.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Spec.Name < tables[j].Spec.Name })
	return protocol.ListTablesReply{Tables: tables}
}

func (e *Engine) handleDrop(r protocol.DropRequest) (any, error) {
	defer e.observeRPC("drop")()
	mDeltaBacklog.Set(r.Table, 0)
	e.mu.Lock()
	if t, ok := e.tables[r.Table]; ok {
		for _, oc := range t.owners {
			e.trackHeld(-ocBytes(oc))
		}
		if t.cache != nil {
			t.cache.discard()
		}
		if t.delta != nil {
			e.trackHeld(-t.delta.heldBytes())
		}
		// A later re-outsource under the same name continues the epoch
		// rather than restarting it, so probes can't mistake the
		// replacement for the original registration.
		e.epochFloor[r.Table] = t.epoch
		delete(e.tables, r.Table)
	}
	e.mu.Unlock()
	e.pendMu.Lock()
	for _, p := range e.pending[r.Table] { // abandon half-assembled sharded uploads
		if p.oc != nil {
			e.trackHeld(-ocBytes(p.oc))
		}
	}
	delete(e.pending, r.Table)
	delete(e.storeMarks, r.Table) // and reclaim its attempt marks
	e.pendMu.Unlock()
	if e.opts.Store != nil {
		// Removes live, pending and manifest files alike.
		if err := e.opts.Store.DropTable(r.Table); err != nil {
			return nil, err
		}
	}
	return protocol.DropReply{}, nil
}

// spill writes an owner's columns to disk and drops them from memory.
func (e *Engine) spill(tableName string, owner int, oc *ownerCols) error {
	st := e.opts.Store
	pre := fmt.Sprintf("o%d.", owner)
	if oc.chi != nil {
		if err := st.WriteU16(tableName, pre+"chi", oc.chi); err != nil {
			return err
		}
	}
	if oc.chibar != nil {
		if err := st.WriteU16(tableName, pre+"chibar", oc.chibar); err != nil {
			return err
		}
	}
	for col, v := range oc.sums {
		if err := st.WriteU64(tableName, pre+"sum."+col, v); err != nil {
			return err
		}
	}
	for col, v := range oc.vsums {
		if err := st.WriteU64(tableName, pre+"vsum."+col, v); err != nil {
			return err
		}
	}
	if oc.cnt != nil {
		if err := st.WriteU64(tableName, pre+"cnt", oc.cnt); err != nil {
			return err
		}
	}
	if oc.vcnt != nil {
		if err := st.WriteU64(tableName, pre+"vcnt", oc.vcnt); err != nil {
			return err
		}
	}
	oc.chi, oc.chibar, oc.sums, oc.vsums, oc.cnt, oc.vcnt = nil, nil, nil, nil, nil, nil
	oc.onDisk = true
	return nil
}

// lookup snapshots the table under the engine lock and checks all m
// owners have outsourced. The returned view is safe to read without
// locks: ownerCols are immutable once registered, and later Stores only
// swap map entries, never mutate visible columns.
func (e *Engine) lookup(name string) (*tableView, error) {
	e.mu.RLock()
	t, ok := e.tables[name]
	var v *tableView
	if ok {
		v = &tableView{spec: t.spec, owners: make([]*ownerCols, e.view.M), cache: t.cache, delta: t.delta}
		for j := 0; j < e.view.M; j++ {
			v.owners[j] = t.owners[j] // nil when owner j has not outsourced
		}
	}
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server %d: unknown table %q", e.view.Index, name)
	}
	for j, oc := range v.owners {
		if oc == nil {
			return nil, fmt.Errorf("server %d: table %q missing owner %d of %d", e.view.Index, name, j, e.view.M)
		}
	}
	return v, nil
}

// ---- column fetch layer ----
//
// Every handler fetches exactly the stored cells its reply window needs:
// contiguous windows via fetch*Window (reading only the chunks that
// overlap the window) and scattered cells — permuted reply windows,
// bucket-tree frontiers — via fetchU16Gather (visiting the touched
// chunks one at a time, so residency stays O(window + chunk)). In-memory
// tables hand out zero-copy slices and report no fetch time; disk reads
// are timed into Stats.FetchNS and served through the per-table
// hot-chunk cache when enabled.

// memU16 resolves an in-memory uint16 column by its layout name.
func memU16(oc *ownerCols, col string) []uint16 {
	switch col {
	case "chi":
		return oc.chi
	case "chibar":
		return oc.chibar
	}
	return nil
}

// memU64 resolves an in-memory uint64 column by its layout name.
func memU64(oc *ownerCols, col string) []uint64 {
	switch {
	case col == "cnt":
		return oc.cnt
	case col == "vcnt":
		return oc.vcnt
	case strings.HasPrefix(col, "sum."):
		return oc.sums[strings.TrimPrefix(col, "sum.")]
	case strings.HasPrefix(col, "vsum."):
		return oc.vsums[strings.TrimPrefix(col, "vsum.")]
	}
	return nil
}

// colInfo reports a disk column's shape, cached per table epoch.
func (e *Engine) colInfo(t *tableView, key string, stats *protocol.Stats) (sharestore.ColumnInfo, error) {
	load := func() (sharestore.ColumnInfo, error) {
		start := time.Now()
		info, err := e.opts.Store.Stat(t.spec.Name, key)
		stats.FetchNS += time.Since(start).Nanoseconds()
		return info, err
	}
	if t.cache != nil {
		return t.cache.getInfo(key, load)
	}
	return load()
}

// chunkSpanU16 returns chunk k of a disk column, via the hot-chunk cache
// when enabled.
func (e *Engine) chunkSpanU16(t *tableView, key string, k uint64, stats *protocol.Stats) ([]uint16, error) {
	load := func() ([]uint16, error) {
		start := time.Now()
		v, err := e.opts.Store.ReadU16Chunk(t.spec.Name, key, k)
		stats.FetchNS += time.Since(start).Nanoseconds()
		return v, err
	}
	if t.cache != nil {
		v, hit, err := t.cache.getU16(key, k, load)
		if hit {
			stats.CacheHits++
			mCacheHits.Inc()
		} else {
			mCacheMisses.Inc()
		}
		return v, err
	}
	return load()
}

// chunkSpanU64 is chunkSpanU16 for uint64 columns.
func (e *Engine) chunkSpanU64(t *tableView, key string, k uint64, stats *protocol.Stats) ([]uint64, error) {
	load := func() ([]uint64, error) {
		start := time.Now()
		v, err := e.opts.Store.ReadU64Chunk(t.spec.Name, key, k)
		stats.FetchNS += time.Since(start).Nanoseconds()
		return v, err
	}
	if t.cache != nil {
		v, hit, err := t.cache.getU64(key, k, load)
		if hit {
			stats.CacheHits++
			mCacheHits.Inc()
		} else {
			mCacheMisses.Inc()
		}
		return v, err
	}
	return load()
}

// fetchU16Window returns owner j's cells [rg.Offset, rg.End()) of a
// uint16 column, with the table's delta overlay merged in. The raw
// fetch reports whether the slice is owned by the caller; shared slices
// (in-memory columns, cached chunks) are cloned only when an overlay
// entry actually lands in the window.
func (e *Engine) fetchU16Window(t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]uint16, error) {
	v, owned, err := e.fetchU16WindowRaw(t, owner, col, rg, stats)
	if err != nil || t.delta == nil {
		return v, err
	}
	start := time.Now()
	v = t.delta.patchU16(colKey(owner, col), rg, v, owned)
	stats.PatchNS += time.Since(start).Nanoseconds()
	return v, nil
}

// fetchU16WindowRaw is the overlay-free window fetch: a zero-copy slice
// for in-memory tables (owned=false), a chunk-ranged read for disk
// tables (owned unless served straight from the chunk cache).
func (e *Engine) fetchU16WindowRaw(t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]uint16, bool, error) {
	oc := t.owners[owner]
	if !oc.onDisk {
		v := memU16(oc, col)
		if v == nil {
			return nil, false, fmt.Errorf("server %d: table %q owner %d missing %s column", e.view.Index, t.spec.Name, owner, col)
		}
		return v[rg.Offset:rg.End()], false, nil
	}
	key := colKey(owner, col)
	if t.cache == nil {
		start := time.Now()
		v, err := e.opts.Store.ReadU16Range(t.spec.Name, key, rg.Offset, rg.Count)
		stats.FetchNS += time.Since(start).Nanoseconds()
		return v, true, err
	}
	info, err := e.colInfo(t, key, stats)
	if err != nil {
		return nil, false, err
	}
	cc := info.ChunkCells
	if rg.Count > 0 && rg.Offset%cc == 0 {
		chunkEnd := rg.Offset + cc
		if chunkEnd > info.Cells {
			chunkEnd = info.Cells
		}
		if rg.End() == chunkEnd {
			// The window is exactly one whole chunk (shard windows
			// aligned to the chunk size): hand out the chunk slice
			// without copying.
			v, err := e.chunkSpanU16(t, key, rg.Offset/cc, stats)
			return v, false, err
		}
	}
	if rg.Offset == 0 && rg.Count == info.Cells && info.NumChunks() > 1 {
		// Whole-column read of a multi-chunk column (monolithic query
		// shapes): cache the assembled column as one entry so warm
		// queries get a zero-copy slice handoff instead of re-joining
		// chunks per query.
		load := func() ([]uint16, error) {
			start := time.Now()
			v, err := e.opts.Store.ReadU16Range(t.spec.Name, key, 0, info.Cells)
			stats.FetchNS += time.Since(start).Nanoseconds()
			return v, err
		}
		v, hit, err := t.cache.getU16(key, fullColumnChunk, load)
		if hit {
			stats.CacheHits++
			mCacheHits.Inc()
		} else {
			mCacheMisses.Inc()
		}
		return v, false, err
	}
	out := make([]uint16, rg.Count)
	if rg.Count == 0 {
		return out, true, nil
	}
	for k := rg.Offset / cc; k*cc < rg.End(); k++ {
		chunk, err := e.chunkSpanU16(t, key, k, stats)
		if err != nil {
			return nil, false, err
		}
		lo, hi := windowOverlap(k*cc, k*cc+uint64(len(chunk)), rg)
		copy(out[lo-rg.Offset:], chunk[lo-k*cc:hi-k*cc])
	}
	return out, true, nil
}

// fetchU64Window is fetchU16Window for uint64 columns (delta overlay
// merged in).
func (e *Engine) fetchU64Window(t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]uint64, error) {
	v, owned, err := e.fetchU64WindowRaw(t, owner, col, rg, stats)
	if err != nil || t.delta == nil {
		return v, err
	}
	start := time.Now()
	v = t.delta.patchU64(colKey(owner, col), rg, v, owned)
	stats.PatchNS += time.Since(start).Nanoseconds()
	return v, nil
}

// fetchU64WindowRaw is fetchU16WindowRaw for uint64 columns.
func (e *Engine) fetchU64WindowRaw(t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]uint64, bool, error) {
	oc := t.owners[owner]
	if !oc.onDisk {
		v := memU64(oc, col)
		if v == nil {
			return nil, false, fmt.Errorf("server %d: owner %d missing %s column", e.view.Index, owner, col)
		}
		return v[rg.Offset:rg.End()], false, nil
	}
	key := colKey(owner, col)
	if t.cache == nil {
		start := time.Now()
		v, err := e.opts.Store.ReadU64Range(t.spec.Name, key, rg.Offset, rg.Count)
		stats.FetchNS += time.Since(start).Nanoseconds()
		return v, true, err
	}
	info, err := e.colInfo(t, key, stats)
	if err != nil {
		return nil, false, err
	}
	cc := info.ChunkCells
	if rg.Count > 0 && rg.Offset%cc == 0 {
		chunkEnd := rg.Offset + cc
		if chunkEnd > info.Cells {
			chunkEnd = info.Cells
		}
		if rg.End() == chunkEnd {
			// Whole-chunk window: no copy (see fetchU16WindowRaw).
			v, err := e.chunkSpanU64(t, key, rg.Offset/cc, stats)
			return v, false, err
		}
	}
	if rg.Offset == 0 && rg.Count == info.Cells && info.NumChunks() > 1 {
		// Whole-column read: one cache entry, zero-copy warm handoff
		// (see fetchU16WindowRaw).
		load := func() ([]uint64, error) {
			start := time.Now()
			v, err := e.opts.Store.ReadU64Range(t.spec.Name, key, 0, info.Cells)
			stats.FetchNS += time.Since(start).Nanoseconds()
			return v, err
		}
		v, hit, err := t.cache.getU64(key, fullColumnChunk, load)
		if hit {
			stats.CacheHits++
			mCacheHits.Inc()
		} else {
			mCacheMisses.Inc()
		}
		return v, false, err
	}
	out := make([]uint64, rg.Count)
	if rg.Count == 0 {
		return out, true, nil
	}
	for k := rg.Offset / cc; k*cc < rg.End(); k++ {
		chunk, err := e.chunkSpanU64(t, key, k, stats)
		if err != nil {
			return nil, false, err
		}
		lo, hi := windowOverlap(k*cc, k*cc+uint64(len(chunk)), rg)
		copy(out[lo-rg.Offset:], chunk[lo-k*cc:hi-k*cc])
	}
	return out, true, nil
}

// windowOverlap intersects chunk cells [clo, chi) with the window rg.
func windowOverlap(clo, chi uint64, rg protocol.Range) (lo, hi uint64) {
	lo, hi = clo, chi
	if lo < rg.Offset {
		lo = rg.Offset
	}
	if hi > rg.End() {
		hi = rg.End()
	}
	return lo, hi
}

// gatherPlan groups scattered cell indices by the chunk that holds
// them, so a gather visits each touched chunk exactly once. order holds
// positions into idx, grouped by chunk; starts[c] is the first position
// of chunk chunks[c] within order. Built in O(n + touched chunks) with
// a counting pass — no comparison sort — and shared across every
// owner's column of the same chunk geometry.
type gatherPlan struct {
	cc     uint64
	chunks []uint64
	starts []int
	order  []int32
}

func buildGatherPlan(idx []uint32, cc, cells uint64) gatherPlan {
	nchunks := int((cells + cc - 1) / cc)
	counts := make([]int, nchunks)
	for _, c := range idx {
		counts[uint64(c)/cc]++
	}
	chunks := make([]uint64, 0, nchunks)
	starts := make([]int, 1, nchunks+1)
	next := make([]int, nchunks)
	for k, n := range counts {
		if n == 0 {
			continue
		}
		next[k] = starts[len(starts)-1]
		chunks = append(chunks, uint64(k))
		starts = append(starts, next[k]+n)
	}
	order := make([]int32, len(idx))
	for i, cell := range idx {
		k := uint64(cell) / cc
		order[next[k]] = int32(i)
		next[k]++
	}
	return gatherPlan{cc: cc, chunks: chunks, starts: starts, order: order}
}

// fetchU16Gather returns owner j's cells idx[0..n) of a uint16 column,
// in idx order. Disk tables visit each touched chunk once (per the
// plan), so residency is O(len(idx) + chunk) even when the indices
// scatter across the whole column (permuted reply windows, bucket-tree
// frontiers).
func (e *Engine) fetchU16Gather(t *tableView, owner int, col string, idx []uint32, plan *gatherPlan, stats *protocol.Stats) ([]uint16, error) {
	out, err := e.fetchU16GatherRaw(t, owner, col, idx, plan, stats)
	if err == nil && t.delta != nil {
		// The gathered slice is always freshly built, so the overlay
		// patches it in place.
		start := time.Now()
		t.delta.patchGatherU16(colKey(owner, col), idx, out)
		stats.PatchNS += time.Since(start).Nanoseconds()
	}
	return out, err
}

// fetchU16GatherRaw is the overlay-free gather.
func (e *Engine) fetchU16GatherRaw(t *tableView, owner int, col string, idx []uint32, plan *gatherPlan, stats *protocol.Stats) ([]uint16, error) {
	oc := t.owners[owner]
	out := make([]uint16, len(idx))
	if !oc.onDisk {
		v := memU16(oc, col)
		if v == nil {
			return nil, fmt.Errorf("server %d: table %q owner %d missing %s column", e.view.Index, t.spec.Name, owner, col)
		}
		for i, c := range idx {
			out[i] = v[c]
		}
		return out, nil
	}
	key := colKey(owner, col)
	info, err := e.colInfo(t, key, stats)
	if err != nil {
		return nil, err
	}
	if plan == nil || plan.cc != info.ChunkCells {
		// Mixed chunk geometries across owners (e.g. a half-migrated
		// table): fall back to a column-specific plan.
		p := buildGatherPlan(idx, info.ChunkCells, info.Cells)
		plan = &p
	}
	for c, k := range plan.chunks {
		chunk, err := e.chunkSpanU16(t, key, k, stats)
		if err != nil {
			return nil, err
		}
		lo := k * plan.cc
		for _, i := range plan.order[plan.starts[c]:plan.starts[c+1]] {
			out[i] = chunk[uint64(idx[i])-lo]
		}
	}
	return out, nil
}

// chiWindows fetches every owner's χ (bar=false) or χ̄ (bar=true) share
// cells for the stored-cell window rg.
func (e *Engine) chiWindows(t *tableView, bar bool, rg protocol.Range, stats *protocol.Stats) ([][]uint16, error) {
	col := "chi"
	if bar {
		col = "chibar"
	}
	out := make([][]uint16, e.view.M)
	for j := 0; j < e.view.M; j++ {
		v, err := e.fetchU16Window(t, j, col, rg, stats)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// chiGather fetches every owner's χ/χ̄ share at the scattered stored
// cells idx, in idx order — a window of an inverse server permutation or
// a bucket-tree frontier, used as it is. The chunk-grouping plan is
// computed once and shared across owners (their columns share the
// store's chunk geometry).
func (e *Engine) chiGather(t *tableView, bar bool, idx []uint32, stats *protocol.Stats) ([][]uint16, error) {
	col := "chi"
	if bar {
		col = "chibar"
	}
	var plan *gatherPlan
	for j := 0; j < e.view.M; j++ {
		if t.owners[j].onDisk {
			info, err := e.colInfo(t, colKey(j, col), stats)
			if err != nil {
				return nil, err
			}
			p := buildGatherPlan(idx, info.ChunkCells, info.Cells)
			plan = &p
			break
		}
	}
	out := make([][]uint16, e.view.M)
	for j := 0; j < e.view.M; j++ {
		v, err := e.fetchU16Gather(t, j, col, idx, plan, stats)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// ---- parallel helper ----

// parallel splits [0, n) into contiguous chunks across the worker pool.
// The width is sampled once per loop, so SetThreads during a query is
// race-free and only affects subsequent loops.
func (e *Engine) parallel(n int, fn func(lo, hi int)) {
	threads := int(e.threads.Load())
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ---- sharding helpers ----

// s1Inverse returns PF_s1⁻¹, materialised once: sharded Count/permuted-
// PSU replies are windows of the permuted output vector, so the engine
// maps output positions back to stored cells.
func (e *Engine) s1Inverse() perm.Perm {
	e.s1invOnce.Do(func() { e.s1inv = e.view.S1.Inverse() })
	return e.s1inv
}

// s2Inverse returns PF_s2⁻¹ (verification side of sharded counts).
func (e *Engine) s2Inverse() perm.Perm {
	e.s2invOnce.Do(func() { e.s2inv = e.view.S2.Inverse() })
	return e.s2inv
}

// ---- PSI (§5.1 Step 2) ----

// psiVector runs psiKernel over the (window-relative) share vectors on
// the worker pool and accounts its time. A non-nil scatter is the server
// permutation of a monolithic reply: cell i's value lands at scatter[i].
func (e *Engine) psiVector(shares [][]uint16, subtractM bool, scatter perm.Perm, stats *protocol.Stats) []uint64 {
	var lift uint32
	if subtractM {
		lift = uint32(e.view.Delta - uint64(e.view.MShare)%e.view.Delta)
	}
	start := time.Now()
	n := len(shares[0])
	out := make([]uint64, n)
	e.parallel(n, func(lo, hi int) {
		psiKernel(out, scatter, shares, lo, hi, e.powTab, e.modDelta, lift)
	})
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += n
	return out
}

func (e *Engine) handlePSI(r protocol.PSIRequest) (any, error) {
	defer e.observeRPC("psi")()
	rpcStart := time.Now()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: holds no additive shares", e.view.Index)
	}
	t, err := e.lookup(r.Table)
	if err != nil {
		return nil, err
	}
	var stats protocol.Stats
	var shares [][]uint16
	switch {
	case r.Shard.Sharded():
		if r.Cells != nil {
			return nil, fmt.Errorf("server %d: PSI request mixes a shard range with a cell frontier", e.view.Index)
		}
		if err := r.Shard.Validate(t.spec.B); err != nil {
			return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
		}
		shares, err = e.chiWindows(t, false, r.Shard, &stats)
	case r.Cells != nil:
		// Bucket-tree frontier (§6.6): scattered cells, gathered so only
		// the chunks the frontier touches are read.
		for _, c := range r.Cells {
			if uint64(c) >= t.spec.B {
				return nil, fmt.Errorf("server %d: cell %d out of range", e.view.Index, c)
			}
		}
		shares, err = e.chiGather(t, false, r.Cells, &stats)
	default:
		shares, err = e.chiWindows(t, false, protocol.Range{Offset: 0, Count: t.spec.B}, &stats)
	}
	if err != nil {
		return nil, err
	}
	out := e.psiVector(shares, true, nil, &stats)
	e.finishQuery("psi", r.TraceID, rpcStart, &stats)
	return protocol.PSIReply{Out: out, Stats: stats}, nil
}

// ---- PSI verification (§5.2 Step 2, Equation 7) ----

func (e *Engine) handlePSIVerify(r protocol.PSIVerifyRequest) (any, error) {
	defer e.observeRPC("psiverify")()
	rpcStart := time.Now()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: holds no additive shares", e.view.Index)
	}
	t, err := e.lookup(r.Table)
	if err != nil {
		return nil, err
	}
	if !t.spec.HasVerify {
		return nil, fmt.Errorf("server %d: table %q outsourced without verification columns", e.view.Index, r.Table)
	}
	rg := protocol.Range{Offset: 0, Count: t.spec.B}
	if r.Shard.Sharded() {
		if err := r.Shard.Validate(t.spec.B); err != nil {
			return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
		}
		rg = r.Shard
	}
	var stats protocol.Stats
	shares, err := e.chiWindows(t, true, rg, &stats)
	if err != nil {
		return nil, err
	}
	// No ⊖A(m) on the verification side (Equation 7).
	out := e.psiVector(shares, false, nil, &stats)
	e.finishQuery("psiverify", r.TraceID, rpcStart, &stats)
	return protocol.PSIVerifyReply{Vout: out, Stats: stats}, nil
}

// ---- PSI count (§6.5) ----

func (e *Engine) handleCount(r protocol.CountRequest) (any, error) {
	defer e.observeRPC("count")()
	rpcStart := time.Now()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: holds no additive shares", e.view.Index)
	}
	t, err := e.lookup(r.Table)
	if err != nil {
		return nil, err
	}
	if t.spec.Plain {
		return nil, fmt.Errorf("server %d: count needs a permuted table", e.view.Index)
	}
	if r.Shard.Sharded() {
		if err := r.Shard.Validate(t.spec.B); err != nil {
			return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
		}
	}
	if r.Verify && !t.spec.HasVerify {
		return nil, fmt.Errorf("server %d: table %q lacks verification columns", e.view.Index, r.Table)
	}
	var stats protocol.Stats
	var reply protocol.CountReply
	if reply.Out, err = e.countSide(t, r.Shard, false, &stats); err != nil {
		return nil, err
	}
	if r.Verify {
		// PF_s2-permuted, so Out and Vout align under PF_i (Eq. 1).
		if reply.Vout, err = e.countSide(t, r.Shard, true, &stats); err != nil {
			return nil, err
		}
	}
	e.finishQuery("count", r.TraceID, rpcStart, &stats)
	reply.Stats = stats
	return reply, nil
}

// countSide computes the χ side (bar=false, PF_s1-permuted to hide
// positions from owners) or the χ̄ side (bar=true, PF_s2-permuted) of a
// count reply. A monolithic reply is permuted by the kernel on the way
// out; a sharded window indexes the permuted vector, so the engine
// evaluates the stored cells the inverse permutation maps it to,
// gathered chunk by chunk.
func (e *Engine) countSide(t *tableView, shard protocol.Range, bar bool, stats *protocol.Stats) ([]uint64, error) {
	fwd, inv := e.view.S1, e.s1Inverse
	if bar {
		fwd, inv = e.view.S2, e.s2Inverse
	}
	if shard.Sharded() {
		shares, err := e.chiGather(t, bar, inv()[shard.Offset:shard.End()], stats)
		if err != nil {
			return nil, err
		}
		return e.psiVector(shares, !bar, nil, stats), nil
	}
	shares, err := e.chiWindows(t, bar, protocol.Range{Offset: 0, Count: t.spec.B}, stats)
	if err != nil {
		return nil, err
	}
	return e.psiVector(shares, !bar, fwd, stats), nil
}

// ---- PSU (§7, Equation 18) ----

func (e *Engine) handlePSU(r protocol.PSURequest) (any, error) {
	defer e.observeRPC("psu")()
	rpcStart := time.Now()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: holds no additive shares", e.view.Index)
	}
	t, err := e.lookup(r.Table)
	if err != nil {
		return nil, err
	}
	rg, label := protocol.Range{Offset: 0, Count: t.spec.B}, "psu"
	if r.Shard.Sharded() {
		if err := r.Shard.Validate(t.spec.B); err != nil {
			return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
		}
		rg = r.Shard
	}
	var stats protocol.Stats
	var shares [][]uint16
	var scatter perm.Perm
	if r.Permute && r.Shard.Sharded() {
		// The window indexes the PF_s1-permuted output; masks are
		// derived per output position ("psup" label) so both servers
		// agree without streaming past scattered stored cells, which
		// are gathered chunk by chunk.
		label = "psup"
		shares, err = e.chiGather(t, false, e.s1Inverse()[rg.Offset:rg.End()], &stats)
	} else {
		if r.Permute {
			scatter = e.view.S1 // a monolithic reply is permuted on the way out
		}
		shares, err = e.chiWindows(t, false, rg, &stats)
	}
	if err != nil {
		return nil, err
	}
	out := e.psuMasked(shares, rg, r.QueryID, label, scatter, &stats)
	e.finishQuery("psu", r.TraceID, rpcStart, &stats)
	return protocol.PSUReply{Out: out, Stats: stats}, nil
}

// psuMasked runs psuKernel for the window rg of one reply vector; the
// share vectors are window-relative (position k of the reply reads
// shares[j][k-rg.Offset]). Masks are derived per fixed-size block of
// positions from the shared seed, the query id and label, so both
// servers produce identical rand[] regardless of thread counts or shard
// boundaries; boundary blocks fast-forward their stream to the window's
// first position, which makes a sharded stored-order reply agree cell
// for cell with the monolithic one (same "psu" streams). A non-nil
// scatter permutes a monolithic reply on the way out.
func (e *Engine) psuMasked(shares [][]uint16, rg protocol.Range, qid, label string, scatter perm.Perm, stats *protocol.Stats) []uint16 {
	delta := e.view.Delta
	out := make([]uint16, rg.Count)
	if rg.Count == 0 {
		return out // zero-cell table: rg.End()-1 below would wrap
	}
	start := time.Now()
	firstBlk := int(rg.Offset / psuBlock)
	lastBlk := int((rg.End() - 1) / psuBlock)
	e.parallel(lastBlk-firstBlk+1, func(blo, bhi int) {
		var skipped [kernelBlock]uint16
		for blk := firstBlk + blo; blk < firstBlk+bhi; blk++ {
			blkStart := uint64(blk) * psuBlock
			lo, hi := max(blkStart, rg.Offset), min(blkStart+psuBlock, rg.End())
			g := prg.New(e.view.PSUSeed.Derive(fmt.Sprintf("%s/%s/%d", label, qid, blk)))
			for skip := lo - blkStart; skip > 0; { // fast-forward the block stream to lo
				n := min(skip, kernelBlock)
				g.FillRange1(skipped[:n], delta)
				skip -= n
			}
			psuKernel(out, scatter, shares, int(lo-rg.Offset), int(hi-rg.Offset), g, delta, e.modDelta)
		}
	})
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += int(rg.Count)
	return out
}

// ---- aggregation round 2 (§6.1 Step 4, Equation 11) ----

func (e *Engine) handleAgg(r protocol.AggRequest) (any, error) {
	defer e.observeRPC("agg")()
	rpcStart := time.Now()
	t, err := e.lookup(r.Table)
	if err != nil {
		return nil, err
	}
	rg := protocol.Range{Offset: 0, Count: t.spec.B}
	if r.Shard.Sharded() {
		if err := r.Shard.Validate(t.spec.B); err != nil {
			return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
		}
		rg = r.Shard
	}
	if uint64(len(r.Z)) != rg.Count {
		return nil, fmt.Errorf("server %d: selector length %d != %d cells", e.view.Index, len(r.Z), rg.Count)
	}
	verify := r.VZ != nil
	if verify {
		if !t.spec.HasVerify {
			return nil, fmt.Errorf("server %d: table %q lacks verification columns", e.view.Index, r.Table)
		}
		if uint64(len(r.VZ)) != rg.Count {
			return nil, fmt.Errorf("server %d: v-selector length mismatch", e.view.Index)
		}
	}
	var stats protocol.Stats
	reply := protocol.AggReply{Sums: make(map[string][]uint64)}
	if verify {
		reply.VSums = make(map[string][]uint64)
	}

	for _, col := range r.Cols {
		acc, err := e.sumColumn(t, "sum."+col, r.Z, rg, &stats)
		if err != nil {
			return nil, err
		}
		reply.Sums[col] = acc
		if verify {
			vacc, err := e.sumColumn(t, "vsum."+col, r.VZ, rg, &stats)
			if err != nil {
				return nil, err
			}
			reply.VSums[col] = vacc
		}
	}
	if r.WithCount {
		if !t.spec.HasCount {
			return nil, fmt.Errorf("server %d: table %q has no count column", e.view.Index, r.Table)
		}
		acc, err := e.sumColumn(t, "cnt", r.Z, rg, &stats)
		if err != nil {
			return nil, err
		}
		reply.Counts = acc
		if verify {
			vacc, err := e.sumColumn(t, "vcnt", r.VZ, rg, &stats)
			if err != nil {
				return nil, err
			}
			reply.VCounts = vacc
		}
	}
	e.finishQuery("agg", r.TraceID, rpcStart, &stats)
	reply.Stats = stats
	return reply, nil
}

// sumColumn fetches every owner's shares of col for the stored cells in
// rg and runs sumKernel over them: acc_i = S(z_i) · Σ_j S(col_i)_j
// (servers multiply the selector share into the summed column shares;
// degree rises to 2). z is parallel to the window, not the full column;
// only the chunks overlapping the window are fetched.
func (e *Engine) sumColumn(t *tableView, col string, z []uint64, rg protocol.Range, stats *protocol.Stats) ([]uint64, error) {
	cols := make([][]uint64, 0, e.view.M)
	for j := 0; j < e.view.M; j++ {
		v, err := e.fetchU64Window(t, j, col, rg, stats)
		if err != nil {
			return nil, err
		}
		cols = append(cols, v)
	}
	n := int(rg.Count)
	acc := make([]uint64, n)
	start := time.Now()
	e.parallel(n, func(lo, hi int) { sumKernel(acc, cols, z, lo, hi) })
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += n
	return acc, nil
}

// ---- max/min/median transport (§6.3 Step 4) ----

func (e *Engine) handleExtremeSubmit(ctx context.Context, r protocol.ExtremeSubmitRequest) (any, error) {
	defer e.observeRPC("extremesubmit")()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: not an additive-share server", e.view.Index)
	}
	if r.Owner < 0 || r.Owner >= e.view.M {
		return nil, fmt.Errorf("server %d: owner %d out of range", e.view.Index, r.Owner)
	}
	sess := e.session(r.QueryID)
	sess.mu.Lock()
	if sess.ext == nil {
		sess.ext = &extremeState{kind: r.Kind, shares: make([][]byte, e.view.M)}
	}
	st := sess.ext
	if st.kind != r.Kind {
		sess.mu.Unlock()
		return nil, fmt.Errorf("server %d: query %q kind mismatch", e.view.Index, r.QueryID)
	}
	if st.shares[r.Owner] == nil {
		st.shares[r.Owner] = r.VShare
		st.got++
	}
	complete := st.got == e.view.M && !st.forwarded
	if complete {
		st.forwarded = true
	}
	kind := st.kind
	var permuted [][]byte
	if complete {
		// input[i] ← A(v)_i ; output ← PF(input)  (§6.3 Step 4)
		permuted = make([][]byte, e.view.M)
		for i, s := range st.shares {
			permuted[e.view.PF.Image(i)] = s
		}
	}
	sess.mu.Unlock()

	if complete {
		if e.opts.Caller == nil || e.opts.AnnouncerAddr == "" {
			return nil, fmt.Errorf("server %d: no announcer configured", e.view.Index)
		}
		_, err := e.opts.Caller.Call(ctx, e.opts.AnnouncerAddr, protocol.AnnounceRequest{
			QueryID:   r.QueryID,
			Kind:      kind,
			ServerIdx: e.view.Index,
			Shares:    permuted,
		})
		if err != nil {
			return nil, fmt.Errorf("server %d: forwarding to announcer: %w", e.view.Index, err)
		}
	}
	return protocol.ExtremeSubmitReply{Forwarded: complete}, nil
}

func (e *Engine) handleExtremeFetch(ctx context.Context, r protocol.ExtremeFetchRequest) (any, error) {
	defer e.observeRPC("extremefetch")()
	rpcStart := time.Now()
	sess, ok := e.peekSession(r.QueryID)
	if !ok {
		return nil, fmt.Errorf("server %d: unknown extreme query %q", e.view.Index, r.QueryID)
	}
	sess.mu.Lock()
	st := sess.ext
	cached := st != nil && st.result != nil
	var res protocol.AnnounceFetchReply
	if cached {
		res = *st.result
	}
	sess.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("server %d: unknown extreme query %q", e.view.Index, r.QueryID)
	}
	var spans []protocol.Span
	if !cached {
		reply, err := e.opts.Caller.Call(ctx, e.opts.AnnouncerAddr, protocol.AnnounceFetchRequest{
			QueryID: r.QueryID, ServerIdx: e.view.Index,
		})
		spans = e.announcerWaitSpan(r.TraceID, rpcStart)
		if err != nil {
			return nil, err
		}
		af, okT := reply.(protocol.AnnounceFetchReply)
		if !okT {
			return nil, fmt.Errorf("server %d: unexpected announcer reply %T", e.view.Index, reply)
		}
		if !af.Ready {
			return protocol.ExtremeFetchReply{Ready: false}, nil
		}
		sess.mu.Lock()
		st.result = &af
		sess.mu.Unlock()
		res = af
	}
	return protocol.ExtremeFetchReply{
		Ready:       true,
		ValueShares: res.ValueShares,
		IndexShare:  res.IndexShare,
		HasIndex:    res.HasIndex,
		Spans:       spans,
	}, nil
}

// ---- identity round (§6.3 Steps 5b-6) ----

func (e *Engine) handleClaimSubmit(r protocol.ClaimSubmitRequest) (any, error) {
	defer e.observeRPC("claimsubmit")()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: not an additive-share server", e.view.Index)
	}
	if r.Owner < 0 || r.Owner >= e.view.M {
		return nil, fmt.Errorf("server %d: owner %d out of range", e.view.Index, r.Owner)
	}
	sess := e.session(r.QueryID)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.claim == nil {
		sess.claim = &claimState{fpos: make([]uint16, e.view.M), got: make(map[int]bool)}
	}
	st := sess.claim
	if !st.got[r.Owner] {
		st.fpos[r.Owner] = r.Share // fpos[i] ← A(α)_i (§6.3 Step 6)
		st.got[r.Owner] = true
	}
	return protocol.ClaimSubmitReply{}, nil
}

func (e *Engine) handleClaimFetch(r protocol.ClaimFetchRequest) (any, error) {
	defer e.observeRPC("claimfetch")()
	sess, ok := e.peekSession(r.QueryID)
	if !ok {
		return protocol.ClaimFetchReply{Ready: false}, nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := sess.claim
	if st == nil || len(st.got) < e.view.M {
		return protocol.ClaimFetchReply{Ready: false}, nil
	}
	fpos := make([]uint16, len(st.fpos))
	copy(fpos, st.fpos)
	return protocol.ClaimFetchReply{Ready: true, Fpos: fpos}, nil
}
