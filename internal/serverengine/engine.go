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
// Durability: a disk-backed engine (Options.Store set) keeps every
// column in the sharestore's chunked layout and records each
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
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/protocol"
	"prism/internal/sharestore"
	"prism/internal/transport"
)

// Options configures an engine.
type Options struct {
	// Threads is the worker-pool width for per-cell loops (Figure 3's
	// thread sweep). 0 means GOMAXPROCS.
	Threads int
	// Store, when non-nil, makes the engine disk-backed: columns live in
	// the store, queries fetch them per request and report real fetch
	// times. nil serves from RAM.
	Store *sharestore.Store
	// CacheBytes, when > 0, is the byte budget of the per-table hot-chunk
	// cache of a disk-backed engine: column chunks are cached per table
	// epoch (invalidated whenever a Store, Drop or compaction changes the
	// table) and evicted least-recently-used past the budget. Cache hits
	// report zero fetch time and count in Stats.CacheHits. 0 is off:
	// every query reads the store.
	CacheBytes int64
	// PendingTTL reclaims upload assemblies whose owner stopped
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
	// without a Store.
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

	powTab   []uint32      // g^e mod η' for e ∈ [0, δ); η' < 2^32 (params.CheckEtaPrime)
	modDelta modmath.Mod32 // division-free reduction mod δ

	mu     sync.RWMutex
	tables map[string]*table
	// epochFloor remembers the last registration epoch of tables this
	// process dropped, so a drop + re-outsource of the same name keeps
	// the epoch strictly increasing — an owner probing via ListTables
	// can never mistake the replacement for its original registration.
	// Guarded by mu; one uint64 per dropped name.
	epochFloor map[string]uint64

	// pending assembles uploads (table → owner → partial
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
	// materialised on the first Count/permuted-PSU window smaller than
	// the table (they index the permuted reply vectors by output
	// position).
	s1inv, s2inv lazyInverse

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

	poisonReleased bool // tests only: release overwrites what it hands back
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
	// cache is the current epoch's hot-chunk cache (nil when the cache is
	// off); every Store/Drop swaps in a fresh one, so queries holding
	// the old snapshot never see the new epoch's columns.
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

// querySession holds every piece of server-side state for one in-flight
// multi-round query, keyed by qid. Each session has its own lock, so
// concurrent queries neither contend nor interfere; QueryDone retires
// the session.
type querySession struct {
	mu sync.Mutex
	// k is the number of result cells the query's vector rounds carry,
	// fixed by the first submit; every later vector must match it.
	k     int
	ext   *extremeState
	claim *claimState
}

// ErrBadVector rejects an extreme or claim submit whose share vector the
// query's session cannot take: empty, longer than the domain, or not the
// length the query's first submit fixed.
var ErrBadVector = errors.New("serverengine: bad share vector length")

// ErrNoAnnouncer rejects max/min/median traffic on a server started
// without an announcer to forward the rounds to.
var ErrNoAnnouncer = errors.New("serverengine: no announcer configured")

type extremeState struct {
	kind      protocol.ExtremeKind
	shares    [][][]byte // per owner: k big shares
	got       int
	forwarded bool
	result    *protocol.AnnounceFetchReply
}

type claimState struct {
	fpos []uint16 // M×k, owner-major
	got  map[int]bool
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
	if opts.AutoRecover && opts.Store != nil {
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

// session returns the state bundle for a query id, creating it for
// k-cell vector rounds if needed.
func (e *Engine) session(qid string, k int) *querySession {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	s, ok := e.sessions[qid]
	if !ok {
		s = &querySession{k: k}
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

// ---- window helpers ----

// window resolves the cells a request addresses in a b-cell table. This
// is the one place a zero range (owners older than the explicit-range
// wire, hand-built probes) is read as the whole table {0, b}; every
// handler below it sees only a range, which must lie inside the table.
func (e *Engine) window(shard protocol.Range, b uint64) (protocol.Range, error) {
	if !shard.Sharded() {
		return protocol.Range{Offset: 0, Count: b}, nil
	}
	if err := shard.Validate(b); err != nil {
		return protocol.Range{}, fmt.Errorf("server %d: %w", e.view.Index, err)
	}
	return shard, nil
}

// lazyInverse is a server permutation's inverse, materialised on first
// use: windows of a permuted reply index the output vector, so the
// engine maps output positions back to stored cells.
type lazyInverse struct {
	once sync.Once
	inv  perm.Perm
}

// permutedWindow says how to produce window rg of a b-cell reply vector
// permuted by pf: gather the stored cells idx = pf⁻¹[rg] and evaluate
// them in reply order — or, when the window is the whole table, evaluate
// in stored order and let the kernel scatter cell i to pf[i] on the way
// out (2^18 cells × 10 owners: a count query takes 15.3 ms scattered,
// 24.7 ms gathered, a PSU count 6.7 vs 11.7 ms, so the scatter stays).
func permutedWindow(rg protocol.Range, b uint64, pf perm.Perm, inverse *lazyInverse) (idx []uint32, scatter perm.Perm) {
	if rg.Count == b {
		return nil, pf
	}
	inverse.once.Do(func() { inverse.inv = pf.Inverse() })
	return inverse.inv[rg.Offset:rg.End()], nil
}

// ---- PSI and PSI count (§5.1 Step 2, §5.2 Step 2, §6.5) ----

func (e *Engine) handlePSI(r protocol.PSIRequest) (any, error) {
	defer e.observeRPC("psi")()
	rep, err := e.psiReply("psi", r, false)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// handleCount answers the PSI exchange with both sides server-permuted,
// so the owner learns the cardinality but not the positions; request and
// reply are PSI's shape (a count has no frontier).
func (e *Engine) handleCount(r protocol.CountRequest) (any, error) {
	defer e.observeRPC("count")()
	rep, err := e.psiReply("count", protocol.PSIRequest{Table: r.Table, TraceID: r.TraceID, Shard: r.Shard, Verify: r.Verify}, true)
	if err != nil {
		return nil, err
	}
	return protocol.CountReply(rep), nil
}

// psiReply computes a PSI (stored order) or count (permuted) reply: the
// χ side and, with r.Verify, the χ̄ side of the same window, both read
// from the one table snapshot. r.Cells is the bucket-tree frontier
// (§6.6): scattered cells of the whole table, gathered so only the
// chunks the frontier touches are read.
func (e *Engine) psiReply(typ string, r protocol.PSIRequest, permuted bool) (rep protocol.PSIReply, err error) {
	rpcStart := time.Now()
	if e.view.Index >= 2 {
		return rep, fmt.Errorf("server %d: holds no additive shares", e.view.Index)
	}
	t, err := e.lookup(r.Table)
	if err != nil {
		return rep, err
	}
	if permuted && t.spec.Plain {
		return rep, fmt.Errorf("server %d: count needs a permuted table", e.view.Index)
	}
	rg, err := e.window(r.Shard, t.spec.B)
	if err != nil {
		return rep, err
	}
	if r.Verify && !t.spec.HasVerify {
		return rep, fmt.Errorf("server %d: table %q lacks verification columns", e.view.Index, r.Table)
	}
	if r.Cells != nil {
		if rg.Count != t.spec.B {
			return rep, fmt.Errorf("server %d: PSI request mixes a shard range with a cell frontier", e.view.Index)
		}
		if r.Verify {
			return rep, fmt.Errorf("server %d: a PSI cell frontier cannot be verified", e.view.Index)
		}
		for _, c := range r.Cells {
			if uint64(c) >= t.spec.B {
				return rep, fmt.Errorf("server %d: cell %d out of range", e.view.Index, c)
			}
		}
	}
	if rep.Out, err = e.psiSide(t, rg, false, permuted, r.Cells, &rep.Stats); err != nil {
		return rep, err
	}
	if r.Verify {
		// The χ shares are out of scope by now: one side's fetch is held
		// at a time. Permuted, Out and Vout align under PF_i (Equation 1);
		// in stored order the owner aligns them (Equation 10).
		if rep.Vout, err = e.psiSide(t, rg, true, permuted, nil, &rep.Stats); err != nil {
			return rep, err
		}
	}
	e.finishQuery(typ, r.TraceID, rpcStart, &rep.Stats)
	return rep, nil
}

// psiSide computes window rg of the χ side (bar=false) or the χ̄ side
// (bar=true; no ⊖A(m) there, Equation 7) of a reply. Permuted, rg
// indexes the PF_s1- (χ) or PF_s2- (χ̄) permuted vector; otherwise it
// names stored cells, or cells does.
func (e *Engine) psiSide(t *tableView, rg protocol.Range, bar, permuted bool, cells []uint32, stats *protocol.Stats) ([]uint32, error) {
	idx, scatter := cells, perm.Perm(nil)
	if permuted {
		pf, inv := e.view.S1, &e.s1inv
		if bar {
			pf, inv = e.view.S2, &e.s2inv
		}
		idx, scatter = permutedWindow(rg, t.spec.B, pf, inv)
	}
	shares, release, err := e.chiShares(t, bar, rg, idx, stats)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.psiVector(shares, !bar, scatter, stats), nil
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
	if r.Permute && t.spec.Plain {
		return nil, fmt.Errorf("server %d: permuted PSU needs a permuted table", e.view.Index)
	}
	rg, err := e.window(r.Shard, t.spec.B)
	if err != nil {
		return nil, err
	}
	var idx []uint32
	var scatter perm.Perm
	if r.Permute {
		// rg indexes the PF_s1-permuted output.
		idx, scatter = permutedWindow(rg, t.spec.B, e.view.S1, &e.s1inv)
	}
	var stats protocol.Stats
	shares, release, err := e.chiShares(t, false, rg, idx, &stats)
	if err != nil {
		return nil, err
	}
	out := e.psuMasked(shares, rg, r.QueryID, scatter, &stats)
	release()
	e.finishQuery("psu", r.TraceID, rpcStart, &stats)
	return protocol.PSUReply{Out: out, Stats: stats}, nil
}

// ---- aggregation round 2 (§6.1 Step 4, Equation 11) ----

func (e *Engine) handleAgg(r protocol.AggRequest) (any, error) {
	defer e.observeRPC("agg")()
	rpcStart := time.Now()
	t, err := e.lookup(r.Table)
	if err != nil {
		return nil, err
	}
	rg, err := e.window(r.Shard, t.spec.B)
	if err != nil {
		return nil, err
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

// ---- max/min/median transport (§6.3 Step 4) ----

// vectorSession returns the session a submit of owner's k-vector joins,
// locked, creating it when the submit opens the query. A vector the
// session cannot take — empty, longer than the domain, or not the k the
// query's first submit fixed — is rejected with the session untouched
// (and not created); so is every vector on a server that has no
// announcer to forward the round to.
func (e *Engine) vectorSession(qid string, owner, k int) (*querySession, error) {
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: not an additive-share server", e.view.Index)
	}
	if err := e.needAnnouncer(); err != nil {
		return nil, err
	}
	if owner < 0 || owner >= e.view.M {
		return nil, fmt.Errorf("server %d: owner %d out of range", e.view.Index, owner)
	}
	if k == 0 || uint64(k) > e.view.B {
		return nil, fmt.Errorf("%w: server %d: query %q: %d cells, domain has %d", ErrBadVector, e.view.Index, qid, k, e.view.B)
	}
	sess := e.session(qid, k)
	sess.mu.Lock()
	if sess.k != k {
		sess.mu.Unlock()
		return nil, fmt.Errorf("%w: server %d: query %q: owner %d sent %d cells, the query has %d", ErrBadVector, e.view.Index, qid, owner, k, sess.k)
	}
	return sess, nil
}

// needAnnouncer fails a max/min/median message on a server that cannot
// forward the round.
func (e *Engine) needAnnouncer() error {
	if e.opts.Caller == nil || e.opts.AnnouncerAddr == "" {
		return fmt.Errorf("server %d: %w", e.view.Index, ErrNoAnnouncer)
	}
	return nil
}

func (e *Engine) handleExtremeSubmit(ctx context.Context, r protocol.ExtremeSubmitRequest) (any, error) {
	defer e.observeRPC("extremesubmit")()
	sess, err := e.vectorSession(r.QueryID, r.Owner, len(r.VShares))
	if err != nil {
		return nil, err
	}
	if sess.ext == nil {
		sess.ext = &extremeState{kind: r.Kind, shares: make([][][]byte, e.view.M)}
	}
	st := sess.ext
	if st.kind != r.Kind {
		sess.mu.Unlock()
		return nil, fmt.Errorf("server %d: query %q kind mismatch", e.view.Index, r.QueryID)
	}
	if st.shares[r.Owner] == nil {
		st.shares[r.Owner] = r.VShares
		st.got++
	}
	complete := st.got == e.view.M && !st.forwarded
	var permuted [][][]byte
	if complete {
		st.forwarded = true
		// input[i] ← A(v)_i ; output ← PF(input)  (§6.3 Step 4): the
		// owners' rows move whole, so every cell sees the same PF.
		permuted = make([][][]byte, e.view.M)
		for i, row := range st.shares {
			permuted[e.view.PF.Image(i)] = row
		}
	}
	sess.mu.Unlock()

	if complete {
		_, err := e.opts.Caller.Call(ctx, e.opts.AnnouncerAddr, protocol.AnnounceRequest{
			QueryID:   r.QueryID,
			Kind:      r.Kind,
			ServerIdx: e.view.Index,
			Slots:     permuted,
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
	if err := e.needAnnouncer(); err != nil {
		return nil, err
	}
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
		IndexShares: res.IndexShares,
		Spans:       spans,
	}, nil
}

// ---- identity round (§6.3 Steps 5b-6) ----

func (e *Engine) handleClaimSubmit(r protocol.ClaimSubmitRequest) (any, error) {
	defer e.observeRPC("claimsubmit")()
	sess, err := e.vectorSession(r.QueryID, r.Owner, len(r.Shares))
	if err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
	if sess.claim == nil {
		sess.claim = &claimState{fpos: make([]uint16, e.view.M*sess.k), got: make(map[int]bool)}
	}
	st := sess.claim
	if !st.got[r.Owner] {
		copy(st.fpos[r.Owner*sess.k:], r.Shares) // fpos[i] ← A(α)_i (§6.3 Step 6), per cell
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
	// Complete: no submit writes fpos any more, so the reply can share it.
	return protocol.ClaimFetchReply{Ready: true, Fpos: st.fpos}, nil
}
