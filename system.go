package prism

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"prism/internal/announcer"
	"prism/internal/ownerengine"
	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/sharestore"
	"prism/internal/telemetry"
	"prism/internal/transport"
)

// ErrVerificationFailed is returned when any result-verification check
// detects server misbehaviour.
var ErrVerificationFailed = ownerengine.ErrVerificationFailed

// System is a fully wired local Prism deployment: m owners, three
// servers, one announcer, and the in-process transport fabric. It is the
// programmatic equivalent of running cmd/prism-init, cmd/prism-server ×3,
// cmd/prism-announcer and m owner processes.
type System struct {
	cfg     Config
	multi   *params.MultiSystem
	sys     *params.System // group 0 (deployment-global parameters)
	network *transport.Network
	// servers[g][phi] is group g's server phi; group 0 is the classic
	// triple, additional groups serve higher cell ranges.
	servers  [][]*serverengine.Engine
	ann      *announcer.Engine
	owners   []*Owner
	cohort   *ownerengine.Cohort // every owner's engine + the announcer: what extremes need
	qidNonce atomic.Uint64
	rr       atomic.Uint64 // round-robin cursor over querying owners
	sched    limiter       // bounds concurrently executing queries
	tracer   *telemetry.Tracer
}

// Owner is one DB owner's handle within a System.
type Owner struct {
	sys *System
	eng *ownerengine.Owner
	idx int
}

// NewLocalSystem builds and wires a complete in-process deployment.
func NewLocalSystem(cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	multi, err := params.GenerateGroups(params.Config{
		NumOwners:  cfg.Owners,
		DomainSize: cfg.Domain.Size(),
		MaxAgg:     cfg.MaxAggValue,
		Seed:       cfg.seed(),
	}, cfg.Groups)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		multi:   multi,
		sys:     multi.Groups[0],
		network: transport.NewNetwork(),
		sched:   newLimiter(cfg.MaxInflight),
		tracer:  telemetry.NewTracer(0),
	}
	s.network.EncodeWire = cfg.EncodeWire
	// Mirror the TCP transport's per-connection pipelining bound so
	// local-mode behaviour matches a wire deployment.
	s.network.SetPerAddrInflight(transport.DefaultPerConnInflight)

	placement := make([]protocol.GroupRange, len(multi.Groups))
	for g, gsys := range multi.Groups {
		engines := make([]*serverengine.Engine, params.NumServers)
		gr := protocol.GroupRange{Start: gsys.Start, Count: gsys.B}
		for phi := 0; phi < params.NumServers; phi++ {
			view, err := gsys.ForServer(phi)
			if err != nil {
				return nil, err
			}
			opts := serverengine.Options{
				Threads:       cfg.Threads,
				DeltaMax:      cfg.DeltaMaxEntries,
				CompactEvery:  cfg.CompactInterval,
				AnnouncerAddr: "announcer",
				Caller:        s.network,
				Group:         g,
			}
			if cfg.DiskDir != "" {
				store, err := sharestore.Open(filepath.Join(cfg.DiskDir, serverDiskDir(g, phi)))
				if err != nil {
					return nil, err
				}
				store.SetChunkCells(cfg.ChunkCells)
				opts.Store = store
				opts.CacheBytes = int64(cfg.HotChunks)
				opts.AutoRecover = cfg.AutoRecover
			}
			eng := serverengine.New(view, opts)
			if cfg.AutoRecover {
				if _, err := eng.RecoveryReport(); err != nil {
					return nil, fmt.Errorf("prism: group %d server %d recovery: %w", g, phi, err)
				}
			}
			engines[phi] = eng
			addr := groupServerAddr(g, phi)
			s.network.Register(addr, eng)
			gr.Servers = append(gr.Servers, addr)
		}
		s.servers = append(s.servers, engines)
		placement[g] = gr
	}

	s.ann = announcer.New(s.sys.ForAnnouncer())
	s.ann.SetPlacement(placement)
	s.network.Register("announcer", s.ann)

	// Owners learn the placement the way a wire deployment would: from
	// the announcer's placement announcement, not from shared memory.
	rep, err := s.network.Call(context.Background(), "announcer", protocol.PlacementRequest{})
	if err != nil {
		return nil, fmt.Errorf("prism: fetching group placement: %w", err)
	}
	prep, ok := rep.(protocol.PlacementReply)
	if !ok || len(prep.Groups) != len(multi.Groups) {
		return nil, fmt.Errorf("prism: bad placement announcement (%T, %d groups)", rep, len(multi.Groups))
	}
	groupCfgs := make([]ownerengine.GroupConfig, len(multi.Groups))
	for g, gsys := range multi.Groups {
		if prep.Groups[g].Start != gsys.Start || prep.Groups[g].Count != gsys.B {
			return nil, fmt.Errorf("prism: placement group %d covers [%d,+%d), params say [%d,+%d)",
				g, prep.Groups[g].Start, prep.Groups[g].Count, gsys.Start, gsys.B)
		}
		groupCfgs[g] = ownerengine.GroupConfig{View: gsys.ForOwner(), Servers: prep.Groups[g].Servers}
	}
	ownerSeed := cfg.seed().Derive("owners")
	s.cohort = &ownerengine.Cohort{Announcer: "announcer"}
	for i := 0; i < cfg.Owners; i++ {
		eng, err := ownerengine.NewMulti(i, groupCfgs, s.network, ownerSeed)
		if err != nil {
			return nil, err
		}
		eng.SetShardCells(cfg.ShardCells)
		s.owners = append(s.owners, &Owner{sys: s, eng: eng, idx: i})
		s.cohort.Owners = append(s.cohort.Owners, eng)
	}
	return s, nil
}

func serverAddr(phi int) string { return fmt.Sprintf("server/%d", phi) }

// groupServerAddr is the logical address of group g's server phi. Group
// 0 keeps the historical single-group addresses.
func groupServerAddr(g, phi int) string {
	if g == 0 {
		return serverAddr(phi)
	}
	return fmt.Sprintf("g%d/server/%d", g, phi)
}

// serverDiskDir is the share-store directory of group g's server phi
// under Config.DiskDir; group 0 keeps the historical layout.
func serverDiskDir(g, phi int) string {
	if g == 0 {
		return fmt.Sprintf("server-%d", phi)
	}
	return fmt.Sprintf("g%d-server-%d", g, phi)
}

// Close stops the system's background work — the servers' compaction
// tickers (Config.CompactInterval). Safe to call multiple times; a
// system without tickers needs no Close but tolerates one.
func (s *System) Close() {
	for _, grp := range s.servers {
		for _, e := range grp {
			e.Close()
		}
	}
}

// CompactTables runs one synchronous compaction pass on every server,
// folding all pending incremental updates into the base columns. The
// returned error joins per-server per-table failures; nil means every
// server's delta backlog is now empty.
func (s *System) CompactTables() error {
	var errs []error
	for g, grp := range s.servers {
		for phi, e := range grp {
			for name, err := range e.CompactAll() {
				errs = append(errs, fmt.Errorf("prism: group %d server %d compacting %q: %w", g, phi, name, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Owner returns owner i's handle.
func (s *System) Owner(i int) *Owner { return s.owners[i] }

// ServerEngine exposes server phi's engine (advanced use: recovery
// reports after Config.AutoRecover, held-bytes gauges, the benchmark
// harness) — the server-side counterpart of Owner.Engine.
func (s *System) ServerEngine(phi int) *serverengine.Engine { return s.servers[0][phi] }

// GroupServerEngine exposes group g's server phi.
func (s *System) GroupServerEngine(g, phi int) *serverengine.Engine { return s.servers[g][phi] }

// NumGroups reports how many server groups the deployment runs.
func (s *System) NumGroups() int { return len(s.servers) }

// Owners returns m.
func (s *System) Owners() int { return len(s.owners) }

// DomainLabel renders a result cell as its domain value.
func (s *System) DomainLabel(cell uint64) string { return s.cfg.Domain.Label(cell) }

// SetServerThreads adjusts every server's worker-pool width (thread-sweep
// benchmarks).
func (s *System) SetServerThreads(n int) {
	for _, grp := range s.servers {
		for _, e := range grp {
			e.SetThreads(n)
		}
	}
}

// PeakFrameBytes reports the largest encoded wire frame the in-process
// fabric has moved since the last ResetPeakFrame. Only populated when
// the system runs with Config.EncodeWire (otherwise messages are passed
// by reference and never encoded). The domainscale benchmark uses it to
// show sharding bounding frame sizes.
func (s *System) PeakFrameBytes() int64 { return s.network.PeakFrameBytes() }

// ResetPeakFrame clears the peak-frame measurement.
func (s *System) ResetPeakFrame() { s.network.ResetPeakFrame() }

// PeakServerHeldBytes reports the largest column-byte residency any
// server reached since the last ResetServerHeldPeaks: in-RAM pending
// upload assemblies, registered in-memory tables and hot-chunk caches.
// The benchx memscale experiment uses it to show the chunked segment
// store bounding server memory by the chunk/shard size rather than the
// domain size.
func (s *System) PeakServerHeldBytes() int64 {
	var peak int64
	for _, grp := range s.servers {
		for _, e := range grp {
			if p := e.PeakHeldBytes(); p > peak {
				peak = p
			}
		}
	}
	return peak
}

// ResetServerHeldPeaks restarts every server's peak-residency
// measurement from its current level.
func (s *System) ResetServerHeldPeaks() {
	for _, grp := range s.servers {
		for _, e := range grp {
			e.ResetHeldPeak()
		}
	}
}

// rowsToData encodes rows into the engine's cell/column format.
func (o *Owner) rowsToData(rows []Row) (*ownerengine.Data, error) {
	data := &ownerengine.Data{Aggs: make(map[string][]uint64)}
	for _, col := range o.sys.cfg.AggColumns {
		data.Aggs[col] = make([]uint64, 0, len(rows))
	}
	for _, r := range rows {
		cell, err := o.sys.cfg.Domain.cellOfRow(r)
		if err != nil {
			return nil, err
		}
		data.Cells = append(data.Cells, cell)
		for _, col := range o.sys.cfg.AggColumns {
			data.Aggs[col] = append(data.Aggs[col], r.Aggs[col])
		}
	}
	return data, nil
}

// Load installs rows as this owner's private table.
func (o *Owner) Load(rows []Row) error {
	data, err := o.rowsToData(rows)
	if err != nil {
		return err
	}
	return o.eng.Load(data)
}

// LoadCells installs pre-encoded tuples (cell indices plus parallel
// aggregation arrays) — the fast path for large synthetic workloads.
func (o *Owner) LoadCells(cells []uint64, aggs map[string][]uint64) error {
	if aggs == nil {
		aggs = map[string][]uint64{}
	}
	return o.eng.Load(&ownerengine.Data{Cells: cells, Aggs: aggs})
}

// Index returns the owner's index.
func (o *Owner) Index() int { return o.idx }

// Engine exposes the underlying protocol engine (for advanced use and
// the benchmark harness).
func (o *Owner) Engine() *ownerengine.Owner { return o.eng }

// Outsource runs Phase 1 for this owner.
func (o *Owner) Outsource(ctx context.Context) (ShareGenStats, error) {
	spec := ownerengine.OutsourceSpec{
		Table:     tableName,
		AggCols:   o.sys.cfg.AggColumns,
		Verify:    o.sys.cfg.Verify,
		WithCount: len(o.sys.cfg.AggColumns) > 0,
	}
	st, err := o.eng.Outsource(ctx, spec)
	return ShareGenStats(st), err
}

// Update incrementally applies a tuple-set change to this owner's
// outsourced table: add and remove list rows to insert and delete
// (either may be nil). Removed rows must match rows the owner
// previously contributed. Only the cells the change touches are
// re-shared and shipped (one delta request per server, merged over the
// base), so the cost scales with the change, not the domain. On an
// error nothing owner-side has changed; calling Update again with the
// same rows is safe and converges the servers.
func (o *Owner) Update(ctx context.Context, add, remove []Row) (UpdateStats, error) {
	var addData, rmData *ownerengine.Data
	var err error
	if len(add) > 0 {
		if addData, err = o.rowsToData(add); err != nil {
			return UpdateStats{}, err
		}
	}
	if len(remove) > 0 {
		if rmData, err = o.rowsToData(remove); err != nil {
			return UpdateStats{}, err
		}
	}
	st, err := o.eng.Update(ctx, tableName, addData, rmData)
	return UpdateStats(st), err
}

// UpdateCells is Update for pre-encoded tuples (the LoadCells
// counterpart): cells plus parallel aggregation arrays per side.
func (o *Owner) UpdateCells(ctx context.Context, addCells []uint64, addAggs map[string][]uint64, rmCells []uint64, rmAggs map[string][]uint64) (UpdateStats, error) {
	var addData, rmData *ownerengine.Data
	if len(addCells) > 0 {
		if addAggs == nil {
			addAggs = map[string][]uint64{}
		}
		addData = &ownerengine.Data{Cells: addCells, Aggs: addAggs}
	}
	if len(rmCells) > 0 {
		if rmAggs == nil {
			rmAggs = map[string][]uint64{}
		}
		rmData = &ownerengine.Data{Cells: rmCells, Aggs: rmAggs}
	}
	st, err := o.eng.Update(ctx, tableName, addData, rmData)
	return UpdateStats(st), err
}

// AdoptTable rebuilds this owner's local update state for a table the
// servers already hold (e.g. after cold-boot recovery, when the table
// was outsourced by an earlier process). The currently loaded rows must
// be the dataset the table was outsourced from.
func (o *Owner) AdoptTable() error {
	return o.eng.AdoptTable(ownerengine.OutsourceSpec{
		Table:     tableName,
		AggCols:   o.sys.cfg.AggColumns,
		Verify:    o.sys.cfg.Verify,
		WithCount: len(o.sys.cfg.AggColumns) > 0,
	})
}

// UpdateStats reports one incremental update's cost; compare TotalNS
// against ShareGenStats.TotalNS for the re-outsource it replaced.
type UpdateStats ownerengine.UpdateStats

// TotalNS is the full update time.
func (u UpdateStats) TotalNS() int64 { return u.BuildNS + u.SplitNS + u.UploadNS }

// OutsourceAll runs Phase 1 for every owner and returns the summed
// share-generation stats (the §8.1 "share generation time" metric).
func (s *System) OutsourceAll(ctx context.Context) (ShareGenStats, error) {
	var total ShareGenStats
	for _, o := range s.owners {
		st, err := o.Outsource(ctx)
		if err != nil {
			return total, fmt.Errorf("prism: owner %d outsourcing: %w", o.idx, err)
		}
		total.BuildNS += st.BuildNS
		total.SplitNS += st.SplitNS
		total.UploadNS += st.UploadNS
		total.Cells = st.Cells
	}
	return total, nil
}

// traceContext mints a per-query trace id when Config.Trace is on and
// telemetry recording is enabled, and threads it through ctx for the
// owner engines to stamp onto the wire requests. Untraced queries get
// ctx back unchanged and an empty id.
func (s *System) traceContext(ctx context.Context, op string) (context.Context, string) {
	if !s.cfg.Trace || !telemetry.Enabled() {
		return ctx, ""
	}
	tid := fmt.Sprintf("trace-%s-%d", op, s.qidNonce.Add(1))
	return telemetry.WithTraceID(ctx, tid), tid
}

// QueryTrace returns the per-phase timeline of a traced query
// (QueryStats.TraceID names it). Spans come back sorted by start time;
// Trace.JSON dumps the timeline and Trace.Phases lists the distinct
// phase names. The system retains the most recent traces (bounded FIFO),
// so fetch timelines promptly under sustained traffic.
func (s *System) QueryTrace(id string) (*telemetry.Trace, bool) { return s.tracer.Get(id) }

// QueryTraceIDs lists the retained trace ids, oldest first.
func (s *System) QueryTraceIDs() []string { return s.tracer.IDs() }

// nextQuerier returns the owner that drives the next query. The paper
// picks a random owner; we rotate round-robin so sustained traffic
// spreads result-construction work evenly across owners (results are
// owner-independent, so rotation never changes an answer).
func (s *System) nextQuerier() (*Owner, error) {
	if len(s.owners) == 0 {
		return nil, errors.New("prism: no owners")
	}
	return s.owners[int((s.rr.Add(1)-1)%uint64(len(s.owners)))], nil
}

// ShareGenStats reports Phase-1 costs.
type ShareGenStats struct {
	BuildNS  int64
	SplitNS  int64
	UploadNS int64
	Cells    uint64
}

// TotalNS is the full share-generation time.
func (s ShareGenStats) TotalNS() int64 { return s.BuildNS + s.SplitNS + s.UploadNS }

// QueryStats decomposes one query's cost: server fetch/compute summed
// over servers and rounds, owner-side result construction, wall time.
type QueryStats struct {
	ServerFetchNS   int64
	ServerComputeNS int64
	OwnerNS         int64
	WallNS          int64
	Rounds          int
	Cells           int
	// ServerCacheHits counts column reads served by the servers'
	// hot-chunk cache (Config.HotChunks) instead of the share store.
	ServerCacheHits int
	// TraceID names the query's timeline in System.QueryTrace when the
	// system runs with Config.Trace; empty otherwise.
	TraceID string

	// spans carries the assembled per-phase timeline until System.run
	// files it with the system's tracer.
	spans []protocol.Span
}

func fromEngineStats(q ownerengine.QueryStats) QueryStats {
	return QueryStats{
		ServerFetchNS:   q.Server.FetchNS,
		ServerComputeNS: q.Server.ComputeNS,
		OwnerNS:         q.OwnerNS,
		WallNS:          q.WallNS,
		Rounds:          q.Rounds,
		Cells:           q.Server.Cells,
		ServerCacheHits: q.Server.CacheHits,
		TraceID:         q.TraceID,
		spans:           q.Server.Spans,
	}
}
