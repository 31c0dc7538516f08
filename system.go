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

// System is a fully wired local Prism deployment: m owners, one
// S0/S1/S2 triple per server group, one announcer, and the in-process
// transport fabric. It is the programmatic equivalent of running
// cmd/prism-init, three cmd/prism-server per group, cmd/prism-announcer
// and m owner processes.
type System struct {
	cfg     Config
	multi   *params.MultiSystem
	sys     *params.System // group 0 (deployment-global parameters)
	network *transport.Network
	// servers[g][phi] is group g's server phi; group g serves the g-th
	// cell range.
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
	s.network.EncodeWire = true // every message is the frame a TCP deployment sends

	groupCfgs := make([]ownerengine.GroupConfig, len(multi.Groups))
	for g, gsys := range multi.Groups {
		engines := make([]*serverengine.Engine, params.NumServers)
		groupCfgs[g].View = gsys.ForOwner()
		for phi := 0; phi < params.NumServers; phi++ {
			view, err := gsys.ForServer(phi)
			if err != nil {
				return nil, err
			}
			opts := serverengine.Options{
				Threads:       cfg.Threads,
				DeltaMax:      cfg.DeltaMaxEntries,
				AnnouncerAddr: "announcer",
				Caller:        s.network,
				Group:         g,
			}
			if cfg.DiskDir != "" {
				store, err := sharestore.Open(filepath.Join(cfg.DiskDir, serverDiskDir(g, phi)))
				if err != nil {
					return nil, err
				}
				store.SetChunkCells(cfg.ShardCells) // every window a whole number of chunks
				opts.Store = store
			}
			eng := serverengine.New(view, opts)
			if _, err := eng.RecoveryReport(); err != nil {
				return nil, fmt.Errorf("prism: group %d server %d recovery: %w", g, phi, err)
			}
			engines[phi] = eng
			addr := serverAddr(g, phi)
			s.network.Register(addr, eng)
			groupCfgs[g].Servers = append(groupCfgs[g].Servers, addr)
		}
		s.servers = append(s.servers, engines)
	}

	s.ann = announcer.New(s.sys.ForAnnouncer())
	s.network.Register("announcer", s.ann)

	ownerSeed := cfg.seed().Derive("owners")
	s.cohort = &ownerengine.Cohort{Announcer: "announcer"}
	for i := 0; i < cfg.Owners; i++ {
		eng, err := ownerengine.New(i, groupCfgs, s.network, cfg.ShardCells, ownerSeed)
		if err != nil {
			return nil, err
		}
		s.owners = append(s.owners, &Owner{sys: s, eng: eng, idx: i})
		s.cohort.Owners = append(s.cohort.Owners, eng)
	}
	return s, nil
}

// serverAddr is the logical address of group g's server phi.
func serverAddr(g, phi int) string { return fmt.Sprintf("g%d/server/%d", g, phi) }

// serverDiskDir is the share-store directory of group g's server phi
// under Config.DiskDir.
func serverDiskDir(g, phi int) string { return fmt.Sprintf("g%d-server-%d", g, phi) }

// Close stops the servers' background work, the compaction passes an
// update past Config.DeltaMaxEntries starts: it waits for those running
// and lets no new one start. Safe to call any number of times.
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
// reports of a disk-backed boot, held-bytes gauges, the benchmark
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

// PeakServerHeldBytes reports the largest column-byte residency any
// server reached: in-RAM pending upload assemblies, registered
// in-memory tables and table-epoch caches. The repo benchmark reports it
// as peak_held_bytes.
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
// The owner keeps the slices without copying them; do not modify them
// after the call.
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

// spec is what every owner outsources of the system's one table.
func (o *Owner) spec() ownerengine.OutsourceSpec {
	cfg := &o.sys.cfg
	return ownerengine.OutsourceSpec{
		Table:     tableName,
		AggCols:   cfg.AggColumns,
		Verify:    cfg.Verify,
		WithCount: len(cfg.AggColumns) > 0,
		Buckets:   cfg.Buckets,
	}
}

// Outsource runs Phase 1 for this owner.
func (o *Owner) Outsource(ctx context.Context) (ShareGenStats, error) {
	st, err := o.eng.Outsource(ctx, o.spec())
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
func (o *Owner) AdoptTable() error { return o.eng.AdoptTable(o.spec()) }

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
// threads it through ctx for the owner engines to stamp onto the wire
// requests. Untraced queries get ctx back unchanged and an empty id.
func (s *System) traceContext(ctx context.Context, op string) (context.Context, string) {
	if !s.cfg.Trace {
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
	// ServerCacheHits counts column reads served from the servers'
	// table-epoch caches — the owner sums every server keeps and the
	// base chunks pending updates land in — instead of read from the
	// store.
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
