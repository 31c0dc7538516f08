// Package ownerengine implements a Prism DB owner (paper §3.2 entity 1):
// building the χ domain tables from local tuples, secret-sharing and
// outsourcing them (Phase 1), issuing queries (Phase 2), and final
// processing — share recombination, Lagrange interpolation, verification
// checks (Phase 4).
package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/domain"
	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/transport"
)

// ErrVerificationFailed is returned when a result-verification check
// detects server misbehaviour (paper §5.2 and the full-version methods).
var ErrVerificationFailed = errors.New("ownerengine: result verification failed")

// replyFault is what a reply short of its window's cells fails a query
// with: a verified query asked for every cell, so a short one skipped some.
func replyFault(verify bool) error {
	if verify {
		return ErrVerificationFailed
	}
	return errors.New("ownerengine: malformed reply")
}

// Data is one owner's private table: one entry per tuple. Cells[i] is the
// A_c cell of tuple i (see internal/domain for value→cell mapping);
// Aggs[col][i] is the tuple's A_x value for each aggregation column.
type Data struct {
	Cells []uint64
	Aggs  map[string][]uint64
}

// Validate checks shape and bounds.
func (d *Data) Validate(b uint64, maxAgg uint64) error {
	for _, c := range d.Cells {
		if c >= b {
			return fmt.Errorf("ownerengine: cell %d outside domain of %d cells", c, b)
		}
	}
	for col, vs := range d.Aggs {
		if len(vs) != len(d.Cells) {
			return fmt.Errorf("ownerengine: column %q has %d values for %d tuples", col, len(vs), len(d.Cells))
		}
		for _, v := range vs {
			if v > maxAgg {
				return fmt.Errorf("ownerengine: column %q value %d exceeds declared bound %d", col, v, maxAgg)
			}
		}
	}
	return nil
}

// OutsourceSpec selects what is outsourced for one logical table.
type OutsourceSpec struct {
	Table     string
	AggCols   []string // which Data.Aggs columns get Shamir sum columns
	Verify    bool     // also outsource χ̄ and v-columns (Table 11's v* columns)
	WithCount bool     // also outsource the per-cell tuple-count column (aOK)
	// Buckets also outsources the §6.6 bucket tree over χ, level k as the
	// Plain table <Table>-bt8/L<k>, and every Update re-uploads it.
	Buckets bool
}

// ShareGenStats reports Phase-1 costs (the paper's "share generation
// time" paragraph in §8.1).
type ShareGenStats struct {
	BuildNS  int64 // χ/aggregate construction
	SplitNS  int64 // secret-share generation
	UploadNS int64 // transport to the three servers
	Cells    uint64
}

// QueryStats decomposes one query's cost the way the paper's plots do.
type QueryStats struct {
	Server  protocol.Stats // summed over servers and rounds
	OwnerNS int64          // owner-side result construction (Table 14)
	WallNS  int64
	Rounds  int
	// TraceID is set when the query ran under a telemetry trace
	// (telemetry.WithTraceID on the context); Server.Spans then carries
	// the per-phase timeline the sites annotated.
	TraceID string
}

// engine is one DB owner's per-group protocol engine: it speaks the
// unchanged PRISM math against exactly one server group's triple over
// that group's slice [Start, Start+B) of the cell domain. It holds only
// what differs by group — the view and its permutations, the servers,
// the share stream, the upload ids and the reducers; the owner's tuples
// and per-cell tables are the exported Owner's (router.go), and an
// engine shares zero-copy slices of them. A query's per-group script and
// merge are Exec's (exec.go).
type engine struct {
	Index int

	view    *params.OwnerView
	caller  transport.Caller
	servers []string // logical addresses of the NumServers servers
	rng     *prg.PRG

	// shardCells is the window size every O(b) exchange (table upload,
	// PSI/PSU/count vectors, aggregation selectors and replies) moves
	// in, each window its own frame; 0 is one window of b cells.
	shardCells uint64
	// uploadEpoch/uploadSeq mint ordered upload ids
	// ("<epoch>/<seq>") so servers can tell a fresh retry from the
	// stragglers of an abandoned attempt (see protocol.StoreRequest).
	uploadEpoch string
	uploadSeq   atomic.Uint64

	mu sync.Mutex // guards rng

	w3 []field.Elem // Lagrange weights for 3 shares

	// modEta and modDelta reduce the per-cell recombinations by η
	// (products of two 32-bit PSI/count cells) and δ (sums of two PSU
	// cells) without a division.
	modEta   modmath.Mod64
	modDelta modmath.Mod32

	// comp is the view's PF_db2 ∘ PF_db1⁻¹ (OwnerView.Composite): the χ̄
	// position of the cell stored at χ position p, so the §5.2 checks
	// walk stored order with one random read per cell.
	comp perm.Perm
}

// localTable retains owner-local state about an outsourced table: the
// natural-order tables over the whole domain the shares were generated
// from, kept so incremental updates (Update) can recompute exactly the
// cells a tuple-set change touches. upMu serialises updates to the
// table, so the absolute replacement values successive updates carry are
// monotone in upload order.
type localTable struct {
	spec OutsourceSpec

	upMu sync.Mutex
	chi  []uint16            // membership bitmap (natural order)
	mult []uint64            // per-cell tuple multiplicity
	sums map[string][]uint64 // per-cell aggregation sums (field elems)
}

// slice returns entries [lo, hi) of t's parallel arrays as a table of
// their own, sharing t's storage: a group's cells of a whole-domain
// table, or a group's run of an update's changed cells.
func (t *localTable) slice(lo, hi uint64) *localTable {
	s := &localTable{spec: t.spec, chi: t.chi[lo:hi], mult: t.mult[lo:hi], sums: make(map[string][]uint64, len(t.sums))}
	for col, vs := range t.sums {
		s.sums[col] = vs[lo:hi]
	}
	return s
}

// querySession is the owner-side per-query state: a unique query id and
// a private PRG supplying the query's share randomness. Sessions are
// minted from the owner's root PRG under lock and then used lock-free,
// so any number of queries (and outsourcing runs) proceed concurrently
// without contending on — or nondeterministically interleaving — the
// root stream.
type querySession struct {
	qid string
	rng *prg.PRG
}

// newSession mints a per-query session. The qid embeds one nonce (shared
// with the servers); the session PRG is seeded from a second nonce that
// never leaves the owner, so an observer of the qid cannot reconstruct
// the query's share randomness.
func (o *engine) newSession(prefix string) *querySession {
	o.mu.Lock()
	n1, n2 := o.rng.Uint64(), o.rng.Uint64()
	o.mu.Unlock()
	return &querySession{
		qid: fmt.Sprintf("%s-%d-%x", prefix, o.Index, n1),
		rng: prg.New(prg.SeedFromString(fmt.Sprintf("session/%d/%x/%x", o.Index, n1, n2))),
	}
}

// newEngine builds a per-group owner engine. serverAddrs must have
// params.NumServers entries (the group's triple); the engine draws from
// the stream "owner/<i>/g<g>" derived from the owner's seed.
func newEngine(index int, view *params.OwnerView, caller transport.Caller, serverAddrs []string, shardCells uint64, seed prg.Seed) (*engine, error) {
	if len(serverAddrs) != params.NumServers {
		return nil, fmt.Errorf("ownerengine: need %d server addresses, got %d", params.NumServers, len(serverAddrs))
	}
	if view.Eta == 0 || view.Eta >= 1<<32 || view.Delta == 0 || view.Delta >= 1<<32 {
		return nil, fmt.Errorf("ownerengine: view has η=%d, δ=%d; both must lie in (0, 2^32)", view.Eta, view.Delta)
	}
	comp, err := view.Composite()
	if err != nil {
		return nil, fmt.Errorf("ownerengine: %w", err)
	}
	o := &engine{
		Index:      index,
		view:       view,
		caller:     caller,
		servers:    append([]string(nil), serverAddrs...),
		shardCells: shardCells,
		rng:        prg.New(seed.Derive(fmt.Sprintf("owner/%d/g%d", index, view.Group))),
		w3:         share.LagrangeWeights(3),
		modEta:     modmath.NewMod64(view.Eta),
		modDelta:   modmath.NewMod32(view.Delta),
		comp:       comp,
	}
	o.uploadEpoch = fmt.Sprintf("o%d-%x", index, o.rng.Uint64())
	return o, nil
}

// View exposes the owner's parameter view (for orchestration layers).
func (o *engine) View() *params.OwnerView { return o.view }

// outsource runs the group's half of Phase 1 for one table: permute and
// secret-share t, the group's slice of the owner's natural-order tables,
// and upload it to the servers — then, when the spec asks for it, the
// bucket tree over its χ.
func (o *engine) outsource(ctx context.Context, t *localTable) (ShareGenStats, error) {
	spec, b := t.spec, o.view.B
	stats := ShareGenStats{Cells: b}

	start := time.Now()
	sh := o.split(t, o.view.DB1, o.view.DB2)
	stats.SplitNS = time.Since(start).Nanoseconds()

	// Each window moves the same column layout restricted to
	// [Offset, End()) — zero-copy subslices of the share vectors — and the
	// servers register the table only once every window has landed.
	start = time.Now()
	pspec := protocol.TableSpec{
		Name:      spec.Table,
		B:         b,
		AggCols:   append([]string(nil), spec.AggCols...),
		HasVerify: spec.Verify,
		HasCount:  spec.WithCount,
	}
	err := o.upload(ctx, pspec, params.NumServers, func(phi int, rg protocol.Range) protocol.StoreRequest {
		return sh.server(phi, rg.Offset, rg.End())
	})
	if err == nil && spec.Buckets {
		err = o.uploadTree(ctx, spec.Table, t.chi)
	}
	if err != nil {
		return stats, err
	}
	stats.UploadNS = time.Since(start).Nanoseconds()
	return stats, nil
}

// shareSet is the secret-shared columns of a table — or of one update's
// changed cells — by server: chi and bar for the additive pair, the rest
// for all three. The χ-order columns are parallel to each other, the
// χ̄-order ones (bar, vsums, vcnt; nil without Verify) likewise.
type shareSet struct {
	chi, bar    [][]uint16
	sums, vsums map[string][][]uint64
	cnt, vcnt   [][]uint64
}

// split permutes t's columns into χ order (p1) and, with Verify, χ̄ order
// (p2) and secret-shares them: outsource passes the group's B-cell slice
// of a table with PF_db1 and PF_db2, prepareUpdate the group's changed
// cells' new values with the ranks of their stored positions. It draws
// from the group's root PRG under the engine lock — rare and
// heavyweight, so serialising it against query-session minting is cheap
// and race-free — in one fixed order (χ, χ̄, each spec.AggCols column
// and its twin, the counts): a seed fixes the share stream.
func (o *engine) split(t *localTable, p1, p2 perm.Perm) *shareSet {
	spec := t.spec
	s := &shareSet{sums: make(map[string][][]uint64, len(spec.AggCols))}
	shamir := func(p perm.Perm, v []uint64) [][]uint64 {
		return share.ShamirSplitVector(o.rng, perm.Apply(p, v, nil), 1, 3)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s.chi = share.AdditiveSplitVector(o.rng, perm.Apply(p1, t.chi, nil), o.view.Delta, 2)
	if spec.Verify {
		s.bar = share.AdditiveSplitVector(o.rng, perm.Apply(p2, domain.Complement(t.chi), nil), o.view.Delta, 2)
		s.vsums = make(map[string][][]uint64, len(spec.AggCols))
	}
	for _, col := range spec.AggCols {
		s.sums[col] = shamir(p1, t.sums[col])
		if spec.Verify {
			s.vsums[col] = shamir(p2, t.sums[col])
		}
	}
	if spec.WithCount {
		s.cnt = shamir(p1, t.mult)
		if spec.Verify {
			s.vcnt = shamir(p2, t.mult)
		}
	}
	return s
}

// server returns server φ's columns of cells [lo, hi) in both orders —
// zero-copy subslices, as the column fields of a StoreRequest.
func (s *shareSet) server(phi int, lo, hi uint64) protocol.StoreRequest {
	cut := func(sh [][]uint64) []uint64 {
		if sh == nil {
			return nil
		}
		return sh[phi][lo:hi]
	}
	cuts := func(cols map[string][][]uint64) map[string][]uint64 {
		if cols == nil {
			return nil
		}
		out := make(map[string][]uint64, len(cols))
		for col, sh := range cols {
			out[col] = cut(sh)
		}
		return out
	}
	req := protocol.StoreRequest{SumCols: cuts(s.sums), VSumCols: cuts(s.vsums), CountCol: cut(s.cnt), VCountCol: cut(s.vcnt)}
	if phi < 2 {
		req.ChiAdd = s.chi[phi][lo:hi]
		if s.bar != nil {
			req.ChiBarAdd = s.bar[phi][lo:hi]
		}
	}
	return req
}

// buildLocal builds the natural-order tables of the loaded tuples over
// the whole domain (§5.1 Step 1, §6.1 Step 1): the χ bitmap, the
// per-cell sums of every aggregation column, and the per-cell
// multiplicity, which doubles as the count column and, retained, tells
// incremental updates when a removal empties a cell (χ flips back to 0).
func (o *Owner) buildLocal(spec OutsourceSpec) (*localTable, error) {
	d := o.Data()
	if d == nil {
		return nil, errors.New("ownerengine: no data loaded")
	}
	b := o.b
	chi, err := domain.BuildChi(b, d.Cells)
	if err != nil {
		return nil, err
	}
	sums := make(map[string][]uint64, len(spec.AggCols))
	for _, col := range spec.AggCols {
		vs, ok := d.Aggs[col]
		if !ok {
			return nil, fmt.Errorf("ownerengine: data has no column %q", col)
		}
		acc := make([]uint64, b)
		for i, c := range d.Cells {
			acc[c] = field.Add(acc[c], field.Reduce(vs[i]))
		}
		sums[col] = acc
	}
	mult := make([]uint64, b)
	for _, c := range d.Cells {
		mult[c]++
	}
	return &localTable{spec: spec, chi: chi, mult: mult, sums: sums}, nil
}

// upload moves this owner's columns of one table to the first nsrv
// servers, window by window: cols builds server φ's columns for a window,
// every request is stamped with the window and one upload id, and every
// server must acknowledge the completing window: a server that never
// reports Spec.B cells (its assembly was discarded mid-upload) has not
// registered the table.
func (o *engine) upload(ctx context.Context, spec protocol.TableSpec, nsrv int, cols func(phi int, rg protocol.Range) protocol.StoreRequest) error {
	// Ordered per attempt: servers supersede older assemblies and
	// reject this attempt's stragglers once a newer retry appears.
	uploadID := fmt.Sprintf("%s/%d", o.uploadEpoch, o.uploadSeq.Add(1))
	completed := make([]bool, nsrv)
	err := o.forEachShard(ctx, o.plan(protocol.Range{Count: spec.B}), nsrv, func(phi int, rg protocol.Range) any {
		req := cols(phi, rg)
		req.Owner, req.Group, req.Spec, req.Shard, req.UploadID = o.Index, o.view.Group, spec, rg, uploadID
		return req
	}, func(rg protocol.Range, replies []any) error {
		for phi, r := range replies {
			rep, ok := r.(protocol.StoreReply)
			if !ok {
				return fmt.Errorf("ownerengine: unexpected store reply %T", r)
			}
			if rep.Cells == spec.B {
				completed[phi] = true // this server registered the table
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for phi, done := range completed {
		if !done {
			return fmt.Errorf("ownerengine: server %d never completed the upload of %q (assembly discarded mid-upload?)", phi, spec.Name)
		}
	}
	return nil
}

// callServers issues build's request to the group's first nsrv servers
// concurrently (2 is the additive-share pair, 3 every server) and
// returns their replies indexed by server, with the failures joined,
// each tagged with its server's logical address. The replies may borrow
// their frames (transport.Caller.CallBorrowed): release hands them all
// back once nothing reads the replies any more.
func (o *engine) callServers(ctx context.Context, nsrv int, build func(phi int) any) (replies []any, release func(), err error) {
	out := make([]any, nsrv)
	releases := make([]func(), nsrv)
	errs := make([]error, nsrv)
	var wg sync.WaitGroup
	for phi := 0; phi < nsrv; phi++ {
		wg.Add(1)
		go func(phi int) {
			defer wg.Done()
			var err error
			if out[phi], releases[phi], err = o.caller.CallBorrowed(ctx, o.servers[phi], build(phi)); err != nil {
				errs[phi] = fmt.Errorf("%s: %w", o.servers[phi], err)
			}
		}(phi)
	}
	wg.Wait()
	return out, func() {
		for _, r := range releases {
			r()
		}
	}, errors.Join(errs...)
}
