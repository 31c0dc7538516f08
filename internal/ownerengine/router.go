package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/bucket"
	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// Owner is one DB owner. It is a placement/routing layer over one
// protocol engine per server group: each engine speaks the unchanged
// PRISM math against its group's S0/S1/S2 triple over that group's
// contiguous slice [Start, Start+B) of the cell domain. The router
// splits loaded tuples and query scopes by owning group, fans the
// per-group exchanges out concurrently, and merges the results back
// into the global domain — set results concatenate (group slices are
// contiguous and ascending), counts and aggregates sum, and an extreme
// query runs one vector round per group owning result cells.
//
// A single-group Owner (New) is the N = 1 case of the same fan-out and
// merge; it keeps the historical PRG stream labels and returns its
// engine's errors verbatim (groupErr), so existing deployments and
// recorded share streams are unaffected.
type Owner struct {
	Index int

	groups []*engine
	starts []uint64 // starts[g] = groups[g].view.Start
	b      uint64   // total domain size (sum of group Bs)

	qidNonce atomic.Uint64 // extreme-query ids this owner has minted (exec.go)
}

// GroupConfig describes one server group from an owner's perspective.
type GroupConfig struct {
	View    *params.OwnerView // group-scoped view (Group, Start, B set)
	Servers []string          // the group's params.NumServers server addresses
}

// New builds a single-group owner. serverAddrs must have
// params.NumServers entries; seed drives all share randomness
// (zero → fresh entropy).
func New(index int, view *params.OwnerView, caller transport.Caller, serverAddrs []string, seed prg.Seed) (*Owner, error) {
	var zero prg.Seed
	if seed == zero {
		seed = prg.NewSeed()
	}
	e, err := newEngine(index, view, caller, serverAddrs, seed, fmt.Sprintf("owner/%d", index))
	if err != nil {
		return nil, err
	}
	return &Owner{Index: index, groups: []*engine{e}, starts: []uint64{view.Start}, b: view.B}, nil
}

// NewMulti builds an owner spanning several server groups. Group views
// must cover the domain contiguously in group order (group g starts
// where group g−1 ends); seed is resolved once so every group's engine
// draws from streams derived from the same root (zero → fresh entropy).
func NewMulti(index int, groups []GroupConfig, caller transport.Caller, seed prg.Seed) (*Owner, error) {
	if len(groups) == 0 {
		return nil, errors.New("ownerengine: NewMulti needs at least one group")
	}
	if len(groups) == 1 {
		return New(index, groups[0].View, caller, groups[0].Servers, seed)
	}
	var zero prg.Seed
	if seed == zero {
		seed = prg.NewSeed()
	}
	o := &Owner{Index: index}
	var next uint64
	for g, gc := range groups {
		v := gc.View
		if v.Group != g {
			return nil, fmt.Errorf("ownerengine: group %d view is labelled group %d", g, v.Group)
		}
		if v.Start != next {
			return nil, fmt.Errorf("ownerengine: group %d starts at cell %d, want %d (groups must tile the domain)", g, v.Start, next)
		}
		e, err := newEngine(index, v, caller, gc.Servers, seed, fmt.Sprintf("owner/%d/g%d", index, g))
		if err != nil {
			return nil, fmt.Errorf("ownerengine: group %d: %w", g, err)
		}
		o.groups = append(o.groups, e)
		o.starts = append(o.starts, v.Start)
		next = v.Start + v.B
	}
	o.b = next
	return o, nil
}

// NumGroups reports how many server groups this owner spans.
func (o *Owner) NumGroups() int { return len(o.groups) }

// DomainB is the total cell-domain size across all groups.
func (o *Owner) DomainB() uint64 { return o.b }

// View exposes the group-0 parameter view. All cryptographic material
// that must be deployment-global (Poly, Q, PF, MaxAgg, Delta, M) is
// identical across groups, so group 0's copy answers for all of them;
// domain fields (B, Start) are group-scoped — use DomainB for the
// global size.
func (o *Owner) View() *params.OwnerView { return o.groups[0].View() }

// GroupView exposes group g's parameter view.
func (o *Owner) GroupView(g int) *params.OwnerView { return o.groups[g].View() }

// groupOf locates the group owning a global cell.
func (o *Owner) groupOf(cell uint64) (int, error) {
	if cell >= o.b {
		return 0, fmt.Errorf("ownerengine: cell %d outside domain of %d cells", cell, o.b)
	}
	for g := len(o.groups) - 1; g > 0; g-- {
		if cell >= o.starts[g] {
			return g, nil
		}
	}
	return 0, nil
}

// groupErr tags an error with the group it came from, so a dead or
// misbehaving group is identifiable from a merged multi-group failure.
// Single-group owners return engine errors verbatim.
func (o *Owner) groupErr(g int, err error) error {
	if err == nil || len(o.groups) == 1 {
		return err
	}
	return fmt.Errorf("group %d: %w", g, err)
}

// eachGroup runs fn for every listed group concurrently and joins the
// group-tagged errors. op labels the fan-out latency series: the
// recorded duration is the slowest group's, since the groups run
// concurrently.
func (o *Owner) eachGroup(op string, sel []int, fn func(g int) error) error {
	start := time.Now()
	defer func() { mFanoutSeconds.Observe(op, time.Since(start).Seconds()) }()
	if len(sel) == 1 {
		return o.groupErr(sel[0], fn(sel[0]))
	}
	errs := make([]error, len(sel))
	var wg sync.WaitGroup
	for k, g := range sel {
		wg.Add(1)
		go func(k, g int) {
			defer wg.Done()
			errs[k] = o.groupErr(g, fn(g))
		}(k, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (o *Owner) allGroups() []int {
	sel := make([]int, len(o.groups))
	for g := range sel {
		sel[g] = g
	}
	return sel
}

// splitData partitions a global dataset into per-group datasets with
// group-local cell indices. Every group receives a dataset (possibly
// empty) carrying every aggregation column, so per-group engines answer
// column lookups uniformly. A nil dataset splits into nils.
func (o *Owner) splitData(d *Data) ([]*Data, error) {
	parts := make([]*Data, len(o.groups))
	if d == nil {
		return parts, nil
	}
	// One pass places every tuple; the columns then move as whole
	// slices, so a tuple costs an append per column and no map access.
	group := make([]int, len(d.Cells))
	counts := make([]int, len(o.groups))
	for i, c := range d.Cells {
		g, err := o.groupOf(c)
		if err != nil {
			return nil, err
		}
		group[i] = g
		counts[g]++
	}
	for g := range parts {
		parts[g] = &Data{Cells: make([]uint64, 0, counts[g])}
		if d.Aggs != nil {
			parts[g].Aggs = make(map[string][]uint64, len(d.Aggs))
		}
	}
	for i, c := range d.Cells {
		p := parts[group[i]]
		p.Cells = append(p.Cells, c-o.starts[group[i]])
	}
	for col, vs := range d.Aggs {
		if len(vs) != len(d.Cells) {
			return nil, fmt.Errorf("ownerengine: column %q has %d values for %d tuples", col, len(vs), len(d.Cells))
		}
		split := make([][]uint64, len(parts))
		for g := range split {
			split[g] = make([]uint64, 0, counts[g])
		}
		for i, v := range vs {
			split[group[i]] = append(split[group[i]], v)
		}
		for g, p := range parts {
			p.Aggs[col] = split[g]
		}
	}
	return parts, nil
}

// Load installs the owner's private tuples, splitting them across
// groups by owning cell range.
func (o *Owner) Load(d *Data) error {
	if err := d.Validate(o.b, o.View().MaxAgg); err != nil {
		return err
	}
	parts, err := o.splitData(d)
	if err != nil {
		return err
	}
	for g, e := range o.groups {
		if err := e.Load(parts[g]); err != nil {
			return o.groupErr(g, err)
		}
	}
	return nil
}

// Data returns the loaded dataset (owner-local, never shared), nil when
// nothing is loaded. The tuples come back grouped by owning group in
// ascending group order; across groups the original interleaving is not
// preserved.
func (o *Owner) Data() *Data {
	var out *Data
	for g, e := range o.groups {
		d := e.Data()
		if d == nil {
			continue
		}
		if out == nil {
			out = &Data{}
		}
		for _, c := range d.Cells {
			out.Cells = append(out.Cells, c+o.starts[g])
		}
		for col, vs := range d.Aggs {
			if out.Aggs == nil {
				out.Aggs = make(map[string][]uint64)
			}
			out.Aggs[col] = append(out.Aggs[col], vs...)
		}
	}
	return out
}

// Outsource runs Phase 1 against every group concurrently. Stats sum
// across groups (total work, not wall time).
func (o *Owner) Outsource(ctx context.Context, spec OutsourceSpec) (ShareGenStats, error) {
	var mu sync.Mutex
	var total ShareGenStats
	err := o.eachGroup("outsource", o.allGroups(), func(g int) error {
		st, err := o.groups[g].Outsource(ctx, spec)
		mu.Lock()
		total.BuildNS += st.BuildNS
		total.SplitNS += st.SplitNS
		total.UploadNS += st.UploadNS
		total.Cells += st.Cells
		mu.Unlock()
		return err
	})
	return total, err
}

// AdoptTable rebuilds owner-local update state for an already-served
// table in every group.
func (o *Owner) AdoptTable(spec OutsourceSpec) error {
	for g, e := range o.groups {
		if err := e.AdoptTable(spec); err != nil {
			return o.groupErr(g, err)
		}
	}
	return nil
}

// SetShardCells bounds every per-group exchange's window size.
func (o *Owner) SetShardCells(n uint64) {
	for _, e := range o.groups {
		e.SetShardCells(n)
	}
}

// mergeQueryStats folds one group's query stats into a global result's.
// Server work and owner CPU sum; rounds take the maximum since the
// groups' rounds run concurrently.
func mergeQueryStats(dst *QueryStats, src QueryStats) {
	dst.Server.Add(src.Server)
	dst.OwnerNS += src.OwnerNS
	if src.Rounds > dst.Rounds {
		dst.Rounds = src.Rounds
	}
	if dst.TraceID == "" {
		dst.TraceID = src.TraceID
	}
}

// setQuery fans one set-result query (PSI or PSU) out to every group
// and reassembles the global result: group slices are contiguous and
// ascending, so the groups' result cells, shifted by their group's
// start, concatenate.
func (o *Owner) setQuery(ctx context.Context, op string, run func(e *engine) (*SetResult, error)) (*SetResult, error) {
	subs := make([]*SetResult, len(o.groups))
	err := o.eachGroup(op, o.allGroups(), func(g int) (err error) {
		subs[g], err = run(o.groups[g])
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &SetResult{}
	for g, sub := range subs {
		for _, c := range sub.Cells {
			out.Cells = append(out.Cells, c+o.starts[g])
		}
		mergeQueryStats(&out.Stats, sub.Stats)
		out.Stats.WallNS = max(out.Stats.WallNS, sub.Stats.WallNS)
	}
	return out, nil
}

// PSI runs the intersection query across all groups; with verify every
// group's answer carries and passes its §5.2 check.
func (o *Owner) PSI(ctx context.Context, table string, verify bool) (*SetResult, error) {
	return o.setQuery(ctx, "psi", func(e *engine) (*SetResult, error) { return e.PSI(ctx, table, verify) })
}

// PSU runs the union query across all groups.
func (o *Owner) PSU(ctx context.Context, table string) (*SetResult, error) {
	return o.setQuery(ctx, "psu", func(e *engine) (*SetResult, error) { return e.PSU(ctx, table) })
}

// countQuery fans a scalar-count query out to every group and sums.
func (o *Owner) countQuery(ctx context.Context, op string, run func(e *engine) (*CountResult, error)) (*CountResult, error) {
	subs := make([]*CountResult, len(o.groups))
	err := o.eachGroup(op, o.allGroups(), func(g int) error {
		res, err := run(o.groups[g])
		subs[g] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &CountResult{}
	for _, sub := range subs {
		out.Count += sub.Count
		mergeQueryStats(&out.Stats, sub.Stats)
		out.Stats.WallNS = max(out.Stats.WallNS, sub.Stats.WallNS)
	}
	return out, nil
}

// Count runs PSI count across all groups and sums the cardinalities.
func (o *Owner) Count(ctx context.Context, table string, verify bool) (*CountResult, error) {
	return o.countQuery(ctx, "count", func(e *engine) (*CountResult, error) { return e.Count(ctx, table, verify) })
}

// PSUCount runs PSU count across all groups and sums the cardinalities.
func (o *Owner) PSUCount(ctx context.Context, table string) (*CountResult, error) {
	return o.countQuery(ctx, "psucount", func(e *engine) (*CountResult, error) { return e.PSUCount(ctx, table) })
}

// Aggregate splits the selected cells by owning group, runs the
// aggregation in every involved group concurrently, and re-keys the
// per-cell results back into the global domain.
func (o *Owner) Aggregate(ctx context.Context, table string, selected []uint64, cols []string, withCount, verify bool) (*AggResult, error) {
	perGroup := make([][]uint64, len(o.groups))
	for _, c := range selected {
		g, err := o.groupOf(c)
		if err != nil {
			return nil, fmt.Errorf("ownerengine: selected cell %d out of range", c)
		}
		perGroup[g] = append(perGroup[g], c-o.starts[g])
	}
	var sel []int
	for g := range o.groups {
		if len(perGroup[g]) > 0 {
			sel = append(sel, g)
		}
	}
	if len(sel) == 0 {
		// No selected cells: run in group 0 so table-existence errors and
		// the empty-result shape match the single-group behaviour.
		sel = []int{0}
	}
	subs := make([]*AggResult, len(o.groups))
	err := o.eachGroup("aggregate", sel, func(g int) error {
		res, err := o.groups[g].Aggregate(ctx, table, perGroup[g], cols, withCount, verify)
		subs[g] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &AggResult{Sums: make(map[string]map[uint64]uint64)}
	if withCount {
		out.Counts = make(map[uint64]uint64)
	}
	for g, sub := range subs {
		if sub == nil {
			continue
		}
		for col, m := range sub.Sums {
			if out.Sums[col] == nil {
				out.Sums[col] = make(map[uint64]uint64, len(m))
			}
			for c, v := range m {
				out.Sums[col][c+o.starts[g]] = v
			}
		}
		for c, v := range sub.Counts {
			out.Counts[c+o.starts[g]] = v
		}
		mergeQueryStats(&out.Stats, sub.Stats)
		out.Stats.WallNS = max(out.Stats.WallNS, sub.Stats.WallNS)
	}
	return out, nil
}

// Update applies a tuple-set change to an outsourced table: add and
// remove list tuples in the Data format (either may be nil), split here
// by owning group. Every group prepares before anything is sent, each
// server of a touched group receives exactly one StoreDeltaRequest, and
// the owner's state is folded only once all of them have acknowledged:
// a failed update returns the error and leaves the owner untouched, and
// calling Update again with the same tuples converges the servers.
func (o *Owner) Update(ctx context.Context, table string, add, remove *Data) (UpdateStats, error) {
	addParts, err := o.splitData(add)
	if err != nil {
		return UpdateStats{}, err
	}
	remParts, err := o.splitData(remove)
	if err != nil {
		return UpdateStats{}, err
	}
	// Prepare in every group — an untouched one prepares to nil, and
	// unknown-table or not-adopted errors surface even for an empty update.
	ups := make([]*update, len(o.groups))
	var sel []int // the touched groups: those with a prepared update
	release := func() {
		for _, g := range sel {
			ups[g].release()
		}
	}
	for g, e := range o.groups {
		if ups[g], err = e.prepareUpdate(table, addParts[g], remParts[g]); err != nil {
			release()
			return UpdateStats{}, o.groupErr(g, err)
		}
		if ups[g] != nil {
			sel = append(sel, g)
		}
	}
	err = o.eachGroup("update", sel, func(g int) error { return o.groups[g].shipUpdate(ctx, ups[g]) })
	if err != nil {
		release()
		return UpdateStats{}, err
	}
	total := UpdateStats{FastPath: true}
	for _, g := range sel {
		u := ups[g]
		o.groups[g].commitUpdate(u)
		total.BuildNS += u.stats.BuildNS
		total.SplitNS += u.stats.SplitNS
		total.UploadNS += u.stats.UploadNS
		total.Cells += u.stats.Cells
		total.FastPath = total.FastPath && u.stats.FastPath
	}
	return total, nil
}

// ExtremeRound is one group's share of an extreme query: the vector
// round that carries every result cell the group owns.
type ExtremeRound struct {
	Group int
	// QueryID names the round's session on the group's servers and on
	// the announcer: the query's id, group-tagged so the announcer can
	// tell a query's rounds apart.
	QueryID string
	// Lo and Hi bound the round's cells within the query's cell list:
	// cells[Lo:Hi], which ascending cells make one contiguous run.
	Lo, Hi int
}

// ExtremeRounds splits an extreme query's result cells — ascending, as
// PSI returns them — by owning group: one vector round per group that
// owns at least one cell, in group order. The placement is deployment-
// wide, so every owner derives the same rounds.
func (o *Owner) ExtremeRounds(qid string, cells []uint64) ([]ExtremeRound, error) {
	var rounds []ExtremeRound
	lo := 0
	for g, e := range o.groups {
		hi := lo
		for hi < len(cells) && cells[hi] >= o.starts[g] && cells[hi]-o.starts[g] < e.view.B {
			hi++
		}
		if hi > lo {
			rounds = append(rounds, ExtremeRound{Group: g, QueryID: fmt.Sprintf("%s/g%d", qid, g), Lo: lo, Hi: hi})
		}
		lo = hi
	}
	if lo < len(cells) {
		return nil, fmt.Errorf("ownerengine: extreme cell %d out of order or outside the domain of %d cells", cells[lo], o.b)
	}
	return rounds, nil
}

// eachRound runs fn for every vector round of the query concurrently.
func (o *Owner) eachRound(op, qid string, cells []uint64, fn func(r ExtremeRound, e *engine) error) error {
	rounds, err := o.ExtremeRounds(qid, cells)
	if err != nil {
		return err
	}
	sel := make([]int, len(rounds))
	byGroup := make([]ExtremeRound, len(o.groups))
	for i, r := range rounds {
		sel[i], byGroup[r.Group] = r.Group, r
	}
	return o.eachGroup(op, sel, func(g int) error { return fn(byGroup[g], o.groups[g]) })
}

// LocalValues computes this owner's private statistic at every listed
// cell (see engine.LocalValues), each group's engine scanning its own
// slice of the tuples once.
func (o *Owner) LocalValues(kind protocol.ExtremeKind, col string, cells []uint64) ([]uint64, []bool, error) {
	rounds, err := o.ExtremeRounds("", cells)
	if err != nil {
		return nil, nil, err
	}
	vals, has := make([]uint64, 0, len(cells)), make([]bool, 0, len(cells))
	for _, r := range rounds {
		local := make([]uint64, r.Hi-r.Lo)
		for c := range local {
			local[c] = cells[r.Lo+c] - o.starts[r.Group]
		}
		v, h, err := o.groups[r.Group].LocalValues(kind, col, local)
		if err != nil {
			return nil, nil, o.groupErr(r.Group, err)
		}
		vals, has = append(vals, v...), append(has, h...)
	}
	return vals, has, nil
}

// SubmitExtreme masks and submits this owner's local values (parallel to
// cells) for the query's extreme rounds, one vector per group owning
// cells, the groups concurrently.
func (o *Owner) SubmitExtreme(ctx context.Context, qid string, kind protocol.ExtremeKind, cells, locals []uint64) error {
	if len(locals) != len(cells) {
		return fmt.Errorf("ownerengine: %d local values for %d cells", len(locals), len(cells))
	}
	return o.eachRound("extremesubmit", qid, cells, func(r ExtremeRound, e *engine) error {
		return e.SubmitExtreme(ctx, r.QueryID, kind, locals[r.Lo:r.Hi])
	})
}

// FetchExtreme retrieves and unmasks the announcer's results of the
// query's rounds; the outcome's vectors are parallel to cells.
func (o *Owner) FetchExtreme(ctx context.Context, qid string, kind protocol.ExtremeKind, cells []uint64) (*ExtremeOutcome, error) {
	subs := make([]*ExtremeOutcome, len(o.groups))
	err := o.eachRound("extremefetch", qid, cells, func(r ExtremeRound, e *engine) (err error) {
		subs[r.Group], err = e.FetchExtreme(ctx, r.QueryID, kind, r.Hi-r.Lo)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &ExtremeOutcome{}
	for _, sub := range subs { // group order is cell order
		if sub != nil {
			out.Values = append(out.Values, sub.Values...)
			out.WinnerSlots = append(out.WinnerSlots, sub.WinnerSlots...)
			mergeQueryStats(&out.Stats, sub.Stats)
		}
	}
	return out, nil
}

// SubmitClaim submits this owner's claim shares (holdsExtreme parallel
// to cells) for the query's rounds.
func (o *Owner) SubmitClaim(ctx context.Context, qid string, cells []uint64, holdsExtreme []bool) error {
	if len(holdsExtreme) != len(cells) {
		return fmt.Errorf("ownerengine: %d claims for %d cells", len(holdsExtreme), len(cells))
	}
	return o.eachRound("claimsubmit", qid, cells, func(r ExtremeRound, e *engine) error {
		return e.SubmitClaim(ctx, r.QueryID, holdsExtreme[r.Lo:r.Hi])
	})
}

// FetchClaims retrieves the ownership vectors of the query's rounds:
// claims[c][i] says owner i holds the extreme at cells[c].
func (o *Owner) FetchClaims(ctx context.Context, qid string, cells []uint64) ([][]bool, error) {
	out := make([][]bool, len(cells))
	err := o.eachRound("claimfetch", qid, cells, func(r ExtremeRound, e *engine) error {
		sub, err := e.FetchClaims(ctx, r.QueryID, r.Hi-r.Lo)
		copy(out[r.Lo:], sub)
		return err
	})
	return out, err
}

// DecodeReducedExtreme unmasks the masked values of a cross-group
// extreme reduce reply (protocol.ExtremeReduceReply.Values): the
// announcer compares and returns the same order-preserving masked
// points it announces per round — F is deployment-global, so group-0's
// polynomial unmasks values from any group's round.
func (o *Owner) DecodeReducedExtreme(kind protocol.ExtremeKind, values [][]byte) ([]uint64, error) {
	v := o.groups[0].view
	out := make([]uint64, 0, len(values))
	for _, vb := range values {
		z, err := v.Poly.SearchZ(new(big.Int).SetBytes(vb), v.MaxAgg)
		if err != nil {
			return nil, fmt.Errorf("%w: reduced value not in F's image: %v", ErrVerificationFailed, err)
		}
		out = append(out, z)
	}
	return out, nil
}

// Ping probes every server of every group concurrently. A nil return
// means the full serving fabric behind this owner answered; failures
// come back joined, tagged with group and logical server address, so a
// health checker can name the dead process rather than just "owner
// unhealthy". The probe is qid-free and touches no table state.
func (o *Owner) Ping(ctx context.Context) error {
	return o.eachGroup("ping", o.allGroups(), func(g int) error {
		return o.groups[g].Ping(ctx)
	})
}

// PingGroup probes group g's three servers only.
func (o *Owner) PingGroup(ctx context.Context, g int) error {
	if g < 0 || g >= len(o.groups) {
		return fmt.Errorf("ownerengine: no group %d (have %d)", g, len(o.groups))
	}
	return o.groupErr(g, o.groups[g].Ping(ctx))
}

// ListTables asks group 0's servers for their table inventories.
func (o *Owner) ListTables(ctx context.Context) ([][]protocol.TableStatus, error) {
	return o.groups[0].ListTables(ctx)
}

// ListTablesGroup asks group g's servers for their table inventories.
func (o *Owner) ListTablesGroup(ctx context.Context, g int) ([][]protocol.TableStatus, error) {
	if g < 0 || g >= len(o.groups) {
		return nil, fmt.Errorf("ownerengine: no group %d (have %d)", g, len(o.groups))
	}
	out, err := o.groups[g].ListTables(ctx)
	return out, o.groupErr(g, err)
}

// TableServed reports whether every group's three servers fully serve
// the table. The returned statuses describe group 0 (the historical
// single-group shape).
func (o *Owner) TableServed(ctx context.Context, table string) (bool, []*protocol.TableStatus, error) {
	var sts []*protocol.TableStatus
	for g, e := range o.groups {
		ok, gsts, err := e.TableServed(ctx, table)
		if g == 0 {
			sts = gsts
		}
		if err != nil || !ok {
			return false, sts, o.groupErr(g, err)
		}
	}
	return true, sts, nil
}

// OutsourceBucketTree outsources a bucketized-PSI tree. Bucket trees
// index the whole domain at group-agnostic fanouts, so the protocol is
// restricted to single-group deployments.
func (o *Owner) OutsourceBucketTree(ctx context.Context, base string, tree *bucket.Tree) error {
	if len(o.groups) != 1 {
		return errors.New("ownerengine: bucketized PSI requires a single-group deployment")
	}
	return o.groups[0].OutsourceBucketTree(ctx, base, tree)
}

// BucketizedPSI runs the bucketized intersection (single-group only).
func (o *Owner) BucketizedPSI(ctx context.Context, base string) (*BucketPSIResult, error) {
	if len(o.groups) != 1 {
		return nil, errors.New("ownerengine: bucketized PSI requires a single-group deployment")
	}
	return o.groups[0].BucketizedPSI(ctx, base)
}
