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
// completed owners, each owner's live column slot, format version,
// registration epoch). An upload writes the slot its owner does not
// serve from, and the manifest write naming that slot live is its
// commit: no column is ever renamed. That manifest is what a restarted
// server trusts: New scans the store of every disk-backed engine,
// validates each manifest against the chunk indexes on disk, replays
// the table's delta log once, and re-registers complete tables before
// the engine answers a request — so a restart does not force owners to
// re-outsource, and a re-outsource after a restart supersedes the
// earlier process's delta log. Tables that fail validation are
// quarantined into the store's .quarantine/ area with a
// machine-readable reason rather than served (or crashing boot);
// columns outside the live slots — an upload that never reached its
// commit, or the slot a committed upload kept for its previous epoch —
// are reclaimed. See recover.go for the full state machine and
// docs/ARCHITECTURE.md for the on-disk format.
package serverengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/levec"
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
	// times, and New resumes serving every table the store already holds
	// (see RecoveryReport). nil serves from RAM.
	Store *sharestore.Store
	// PendingTTL reclaims upload assemblies whose owner stopped
	// sending shards (a crash mid-upload): assemblies untouched for
	// longer than the TTL are swept — RAM buffers released, pending disk
	// columns deleted — on the next Store request. 0 disables the sweep
	// (stale assemblies then linger until the owner retries).
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

	powTab   []uint32      // g^e mod η' for e ∈ [0, δ); η' < 2^32 (params.CheckEtaPrime): PSI's χ̄-side table
	chiTab   []uint32      // powTab rotated by δ ⊖ A(m) (psiTable): PSI's χ-side table
	modDelta modmath.Mod32 // division-free reduction mod δ
	// psiWidth and psuWidth are the widths a laid reply declares for its
	// cells: those of η′−1 (PSI, count) and of δ−1 (PSU).
	psiWidth, psuWidth int

	mu sync.RWMutex
	// tables maps a name to its table, registered by the first
	// completed upload (or the boot's recovery scan) and never replaced
	// or removed: nothing drops a table, so a handler that looked one up
	// holds it for the life of the engine.
	tables map[string]*table

	// pending assembles uploads (table → owner → partial
	// columns); a table epoch is registered only once every cell of
	// every column has arrived, so queries never see a half-upload.
	// storeMarks records the highest upload attempt seen per table and
	// owner so stragglers of an abandoned attempt are rejected instead
	// of clobbering a newer retry (see UploadID): one mark per table
	// and owner that ever uploaded, like the tables themselves.
	pendMu     sync.Mutex
	pending    map[string]map[int]*pendingStore
	storeMarks map[string]map[int]uploadMark

	// s1inv/s2inv are the inverses of the server-side permutations,
	// materialised on the first count or permuted-PSU window, the whole
	// table included, at 4 bytes per cell each: every permuted window
	// gathers the stored cells pf⁻¹[rg] behind its reply positions.
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

	// recovery holds the report (and scan error, if any) of the store
	// scan New ran; nil on an in-memory engine.
	recovery    *RecoveryReport
	recoveryErr error

	// stepHook intercepts compaction and upload ordering points
	// (crash-recovery tests); compactStop/compactDone manage the
	// CompactEvery ticker; triggered counts the passes an update past
	// DeltaMax started, and once closing is set (under mu) no update
	// starts another.
	stepHookMu  sync.Mutex
	stepHook    func(step string) error
	compactStop chan struct{}
	compactDone chan struct{}
	triggered   sync.WaitGroup
	closing     bool
	closeOnce   sync.Once

	// heldBytes/peakHeld track the column bytes this engine holds
	// resident: in-RAM pending upload assemblies, registered in-memory
	// tables, the epochs' owner sums and merge chunks, and the overlays.
	heldBytes atomic.Int64
	peakHeld  atomic.Int64

	poisonReleased bool // tests only: release overwrites what it hands back
}

type table struct {
	spec   protocol.TableSpec
	owners map[int]*ownerCols
	// epoch counts registration events for this table (an owner
	// completing an upload, a compaction swap). Disk-backed engines
	// persist it in the manifest, so it survives restarts and owners can
	// use ListTables to tell "still served" from "replaced since I last
	// probed".
	epoch uint64
	// cache is the current epoch's cache of owner sums and merge chunks;
	// every registration and compaction swap swaps in a fresh one
	// (resetCache), so queries holding the old snapshot never see the new
	// epoch's columns.
	cache *chunkCache
	// delta is the table's not-yet-compacted incremental updates (nil
	// until the first StoreDelta); deltaSeq is the last delta-log
	// sequence this process assigned; deltaFloor records, per owner, the
	// highest sequence superseded by a re-outsource (cold-boot replay
	// skips that owner's entries at or below it). compactMu serialises
	// compaction passes — Compact blocks behind an in-flight pass, so a
	// synchronous call is guaranteed to fold every entry inserted before
	// it; compacting just suppresses duplicate threshold-trigger
	// goroutines. compactThrough is the manifest's CompactThrough (set
	// while a pass patches chunks in place); midPatch records that a
	// failed pass left a chunk torn, which only a restart's recovery
	// rolls forward, so no later pass may move compactThrough past it.
	delta          *deltaOverlay
	deltaSeq       uint64
	deltaFloor     map[int]uint64
	compactMu      sync.Mutex
	compacting     bool
	compactThrough uint64
	midPatch       bool
}

// tableView is an immutable snapshot of one table taken under the engine
// lock: handlers work off the snapshot so a concurrent Store (another
// owner registering, a re-outsource) can never race the query's reads.
type tableView struct {
	spec   protocol.TableSpec
	epoch  uint64        // the registration epoch at snapshot time
	owners []*ownerCols  // dense, index = owner id
	cache  *chunkCache   // the epoch's cache at snapshot time
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
// assemblies, in-memory tables, owner sums, merge chunks, overlays).
func (e *Engine) HeldBytes() int64 { return e.heldBytes.Load() }

// PeakHeldBytes reports the high-water mark of HeldBytes.
func (e *Engine) PeakHeldBytes() int64 { return e.peakHeld.Load() }

// New builds an engine for server view v. A disk-backed engine resumes
// serving what its store holds before New returns (recover.go).
func New(v *params.ServerView, opts Options) *Engine {
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	powTab := modmath.PowTable(v.G, v.Delta, v.EtaPrime)
	e := &Engine{
		view:       v,
		opts:       opts,
		powTab:     powTab,
		chiTab:     psiTable(powTab, uint64(v.MShare)),
		modDelta:   modmath.NewMod32(v.Delta),
		psiWidth:   levec.Width([]uint32{uint32(v.EtaPrime - 1)}),
		psuWidth:   levec.Width([]uint16{uint16(v.Delta - 1)}),
		tables:     make(map[string]*table),
		pending:    make(map[string]map[int]*pendingStore),
		storeMarks: make(map[string]map[int]uploadMark),
		sessions:   make(map[string]*querySession),
		storeMus:   make(map[string]*sync.Mutex),
	}
	e.threads.Store(int64(opts.Threads))
	if opts.Store != nil {
		e.recovery, e.recoveryErr = e.recoverStore()
	}
	if opts.CompactEvery > 0 {
		e.startCompactor(opts.CompactEvery)
	}
	return e
}

// RecoveryReport returns the outcome of the store scan New ran (nil on
// an in-memory engine). The error is ErrStoreEpoch when the store holds
// a manifest of another format version — nothing in it was touched and
// the engine serves no table from it — or a store-level I/O failure;
// every other per-table problem quarantines the table and shows up in
// the report.
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

// Handle implements transport.Handler: HandleLaid, its laid replies
// decoded into ordinary messages.
func (e *Engine) Handle(ctx context.Context, req any) (any, error) {
	reply, err := e.HandleLaid(ctx, req)
	if l, ok := reply.(*protocol.Laid); ok {
		defer l.Release()
		return l.Message()
	}
	return reply, err
}

// HandleLaid implements transport.LayingHandler: the set and aggregation
// rounds answer with laid frames, every reply vector written once,
// straight into the frame that carries it.
func (e *Engine) HandleLaid(ctx context.Context, req any) (any, error) {
	if g, ok := requestGroup(req); ok && g != e.opts.Group {
		return nil, fmt.Errorf("server %d (group %d): request targets group %d", e.view.Index, e.opts.Group, g)
	}
	switch r := req.(type) {
	case protocol.StoreRequest:
		return e.handleStore(r)
	case protocol.StoreDeltaRequest:
		return e.handleStoreDelta(r)
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
// locks: ownerCols are immutable once registered, and a later Store
// swaps map entries and writes the owner's other slot, so the snapshot
// reads its own epoch's slot. Only a second re-outsource of the same
// owner reuses the slot a view from two epochs back names (ROADMAP D1).
func (e *Engine) lookup(name string) (*tableView, error) {
	e.mu.RLock()
	t, ok := e.tables[name]
	var v *tableView
	if ok {
		v = &tableView{spec: t.spec, epoch: t.epoch, owners: make([]*ownerCols, e.view.M), cache: t.cache, delta: t.delta}
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

// ---- round 1 of every set kind (§5.1 Step 2, §5.2 Step 2, §6.5, §7) ----

func (e *Engine) handlePSI(r protocol.PSIRequest) (any, error) {
	defer e.observeRPC("psi")()
	return e.setReply(setAsk{typ: "psi", table: r.Table, trace: r.TraceID, shard: r.Shard, verify: r.Verify})
}

// handleCount answers the PSI exchange with both sides server-permuted,
// so the owner learns the cardinality but not the positions.
func (e *Engine) handleCount(r protocol.CountRequest) (any, error) {
	defer e.observeRPC("count")()
	return e.setReply(setAsk{typ: "count", table: r.Table, qid: r.QueryID, trace: r.TraceID, shard: r.Shard, permuted: true, verify: r.Verify})
}

func (e *Engine) handlePSU(r protocol.PSURequest) (any, error) {
	defer e.observeRPC("psu")()
	return e.setReply(setAsk{typ: "psu", table: r.Table, qid: r.QueryID, trace: r.TraceID, shard: r.Shard, permuted: r.Permute})
}

// setAsk is one set-round request, whichever message carried it.
type setAsk struct {
	typ              string // "psi", "count" or "psu": the reply, and the RPC's metric label
	table, qid       string // qid seeds PSU's masks
	trace            string
	shard            protocol.Range
	permuted, verify bool
}

// setReply is the one reply path of the set round: window rg of the
// owner sum of χ — in stored order, or of the PF_s1-permuted vector —
// turned into PSU's masked sums (§7, Equation 18) or PSI's out vector
// (§5.1 Step 2) and, with verify, PSI's χ̄ side of the same window, both
// read from the one table snapshot and written into the laid reply
// (setMsg).
func (e *Engine) setReply(a setAsk) (any, error) {
	rpcStart := time.Now()
	if e.view.Index >= 2 {
		return nil, fmt.Errorf("server %d: holds no additive shares", e.view.Index)
	}
	t, err := e.lookup(a.table)
	if err != nil {
		return nil, err
	}
	if a.permuted && t.spec.Plain {
		return nil, fmt.Errorf("server %d: a permuted %s needs a permuted table", e.view.Index, a.typ)
	}
	rg, err := e.window(a.shard, t.spec.B)
	if err != nil {
		return nil, err
	}
	if a.verify && !t.spec.HasVerify {
		return nil, fmt.Errorf("server %d: table %q lacks verification columns", e.view.Index, a.table)
	}
	w := e.psiWidth
	if a.typ == "psu" {
		w = e.psuWidth
	}
	var stats protocol.Stats
	return e.fill(setMsg(a, stats), int(rg.Count), w, func(l *protocol.Laid) (any, error) {
		if a.typ == "psu" {
			err := setSide(e, t, rg, false, a.permuted, &stats, func(sum []uint16) {
				e.psuMasked(protocol.Cells[uint16](l, 0), sum, rg, a.qid, &stats)
			})
			if err != nil {
				return nil, err
			}
		} else {
			// One side's fetch is held at a time. Permuted, Out and Vout
			// align under PF_i (Equation 1); in stored order the owner
			// aligns them (Equation 10).
			sides := []bool{false}
			if a.verify {
				sides = append(sides, true)
			}
			for k, bar := range sides {
				err := setSide(e, t, rg, bar, a.permuted, &stats, func(sum []uint16) {
					e.psiVector(protocol.Cells[uint32](l, k), sum, !bar, &stats)
				})
				if err != nil {
					return nil, err
				}
			}
		}
		e.finishQuery(a.typ, a.trace, rpcStart, &stats)
		return setMsg(a, stats), nil
	})
}

// setMsg is the set round's reply to a, its vectors reserved: a
// PSUReply, a PSIReply with Vout when verified, or the same as a
// CountReply when permuted.
func setMsg(a setAsk, stats protocol.Stats) any {
	if a.typ == "psu" {
		return protocol.PSUReply{Out: protocol.Reserve[uint16](), Stats: stats}
	}
	rep := protocol.PSIReply{Out: protocol.Reserve[uint32](), Stats: stats}
	if a.verify {
		rep.Vout = protocol.Reserve[uint32]()
	}
	if a.permuted {
		return protocol.CountReply(rep)
	}
	return rep
}

// fill lays msg out for its n-cell vectors at width w, runs produce —
// which writes every reserved vector and returns the message to finish
// the frame with — and returns the laid reply. On an error or a panic
// the frame goes back to the pool.
func (e *Engine) fill(msg any, n, w int, produce func(l *protocol.Laid) (any, error)) (reply any, err error) {
	l, err := transport.Lay(msg, n, w)
	if err != nil {
		return nil, fmt.Errorf("server %d: %w", e.view.Index, err)
	}
	defer func() {
		if reply == nil {
			l.Release()
		}
	}()
	if msg, err = produce(l); err != nil {
		return nil, err
	}
	if err := l.Finish(msg); err != nil {
		return nil, err
	}
	return l, nil
}

// setSide runs kernel over window rg of the owner sum of the χ side
// (bar false) or the χ̄ side (bar true; no ⊖A(m) there, Equation 7).
// Permuted, rg indexes the PF_s1- (χ) or PF_s2- (χ̄) permuted vector and
// the fetch gathers the stored cells idx = pf⁻¹[rg] behind it, whatever
// the window's size. Otherwise rg names stored cells.
func setSide(e *Engine, t *tableView, rg protocol.Range, bar, permuted bool, stats *protocol.Stats, kernel func(sum []uint16)) error {
	var idx []uint32
	var pf perm.Perm
	if permuted {
		inv := &e.s1inv
		pf = e.view.S1
		if bar {
			pf, inv = e.view.S2, &e.s2inv
		}
		inv.once.Do(func() { inv.inv = pf.Inverse() })
		idx = inv.inv[rg.Offset:rg.End()]
	}
	sum, borrowed, err := ownerSum[uint16](e, t, chiCol(bar), rg, idx, pf, stats)
	if err != nil {
		return err
	}
	kernel(sum)
	if borrowed {
		release(e, sum)
	}
	return nil
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
	// Refuse before the first fetch: a fetch may build an owner sum.
	for _, col := range r.Cols {
		if !slices.Contains(t.spec.AggCols, col) {
			return nil, fmt.Errorf("server %d: table %q has no aggregation column %q", e.view.Index, r.Table, col)
		}
	}
	if r.WithCount && !t.spec.HasCount {
		return nil, fmt.Errorf("server %d: table %q has no count column", e.view.Index, r.Table)
	}
	// The reply's vectors in the codec's walk order: the sums by sorted
	// column, the count, then their §5.2 twins likewise. Each main column
	// is summed under z, each verification column under the independent
	// selector vz.
	cols := slices.Clone(r.Cols)
	slices.Sort(cols)
	cols = slices.Compact(cols)
	main, ver := make([]string, 0, len(cols)+1), make([]string, 0, len(cols)+1)
	for _, col := range cols {
		main, ver = append(main, "sum."+col), append(ver, "vsum."+col)
	}
	if r.WithCount {
		main, ver = append(main, "cnt"), append(ver, "vcnt")
	}
	type side struct {
		cols []string
		z    []uint64
	}
	sides := []side{{main, r.Z}}
	if verify {
		sides = append(sides, side{ver, r.VZ})
	}
	var stats protocol.Stats
	return e.fill(aggMsg(cols, r.WithCount, verify, stats), int(rg.Count), 8, func(l *protocol.Laid) (any, error) {
		k := 0
		for _, side := range sides {
			for _, col := range side.cols {
				if err := e.sumColumn(protocol.Cells[uint64](l, k), t, col, side.z, rg, &stats); err != nil {
					return nil, err
				}
				k++
			}
		}
		e.finishQuery("agg", r.TraceID, rpcStart, &stats)
		return aggMsg(cols, r.WithCount, verify, stats), nil
	})
}

// aggMsg is the aggregation reply over cols, its vectors reserved.
func aggMsg(cols []string, withCount, verify bool, stats protocol.Stats) protocol.AggReply {
	rep := protocol.AggReply{Sums: make(map[string][]uint64, len(cols)), Stats: stats}
	if verify {
		rep.VSums = make(map[string][]uint64, len(cols))
	}
	for _, col := range cols {
		rep.Sums[col] = protocol.Reserve[uint64]()
		if verify {
			rep.VSums[col] = protocol.Reserve[uint64]()
		}
	}
	if withCount {
		rep.Counts = protocol.Reserve[uint64]()
		if verify {
			rep.VCounts = protocol.Reserve[uint64]()
		}
	}
	return rep
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
