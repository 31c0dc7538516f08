package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"time"

	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// This file is the one place that knows which rounds make up a query:
// one script per server group (script), run for every group by Exec's
// one fan-out. Every front door — the library's System/Owner methods and
// scheduler, the gateway backend, prism-owner, the benchmarks — builds a
// Query and calls Exec; none of them reaches a round itself (prism-vet's
// query-rounds, extreme-reduce and query-fanout shape rows keep it so).

// OpKind names one PRISM query. Its row in the kinds table is all any
// layer needs to know about it.
type OpKind int

// Query kinds, in the paper's order: set operations (§5.1, §7), their
// cardinalities (§6.5), summary aggregations over either result set
// (§6.1-§6.2), the exemplary aggregations (§6.3-§6.4) and bucketized PSI
// (§6.6).
const (
	OpPSI OpKind = iota
	OpPSU
	OpPSICount
	OpPSUCount
	OpPSISum
	OpPSIAvg
	OpPSUSum
	OpPSUAvg
	OpPSIMax
	OpPSIMin
	OpPSIMedian
	OpBPSI
)

// Family groups the kinds by the shape of their answer, which is also
// what fixes their column arity: set and count kinds take no column,
// aggregations one or more, extremes exactly one.
type Family int

// Query families.
const (
	FamilySet     Family = iota // answer: Result.Cells
	FamilyCount                 // answer: Result.Count
	FamilyAgg                   // answer: Result.Cells, Sums, Counts
	FamilyExtreme               // answer: Result.Cells, Extreme, Global
)

// kinds is the kind table: the single source for OpKind.String, the
// names the front protocol and prism-owner -op accept, every arity
// check, and the round script Exec runs.
var kinds = [...]struct {
	name      string // front-protocol and CLI token
	label     string // the paper's name for the operator
	family    Family
	overPSU   bool                 // result set is the union, not the intersection
	withCount bool                 // aggregation also fetches the tuple-count column
	extreme   protocol.ExtremeKind // FamilyExtreme only
	bucketed  bool                 // descends the table's bucket tree (OutsourceSpec.Buckets)
}{
	OpPSI:       {name: "psi", label: "PSI", family: FamilySet},
	OpPSU:       {name: "psu", label: "PSU", family: FamilySet, overPSU: true},
	OpPSICount:  {name: "count", label: "PSI Count", family: FamilyCount},
	OpPSUCount:  {name: "psucount", label: "PSU Count", family: FamilyCount, overPSU: true},
	OpPSISum:    {name: "sum", label: "PSI Sum", family: FamilyAgg},
	OpPSIAvg:    {name: "avg", label: "PSI Avg", family: FamilyAgg, withCount: true},
	OpPSUSum:    {name: "psusum", label: "PSU Sum", family: FamilyAgg, overPSU: true},
	OpPSUAvg:    {name: "psuavg", label: "PSU Avg", family: FamilyAgg, overPSU: true, withCount: true},
	OpPSIMax:    {name: "max", label: "PSI Max", family: FamilyExtreme, extreme: protocol.KindMax},
	OpPSIMin:    {name: "min", label: "PSI Min", family: FamilyExtreme, extreme: protocol.KindMin},
	OpPSIMedian: {name: "median", label: "PSI Median", family: FamilyExtreme, extreme: protocol.KindMedian},
	OpBPSI:      {name: "bpsi", label: "Bucketized PSI", family: FamilySet, bucketed: true},
}

func (k OpKind) valid() bool { return k >= 0 && int(k) < len(kinds) }

// String is the paper's name for the operator ("PSI Sum").
func (k OpKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return kinds[k].label
}

// Name is the kind's front-protocol and CLI token ("sum").
func (k OpKind) Name() string {
	if !k.valid() {
		return k.String()
	}
	return kinds[k].name
}

// Family reports which Result fields the kind answers in.
func (k OpKind) Family() Family { return kinds[k].family }

// KindByName resolves a front-protocol token ("psucount") or a paper
// label ("PSU Count") to its kind.
func KindByName(s string) (OpKind, bool) {
	for k, row := range kinds {
		if row.name == s || row.label == s {
			return OpKind(k), true
		}
	}
	return 0, false
}

// KindNames lists the front-protocol tokens in table order.
func KindNames() []string {
	out := make([]string, len(kinds))
	for k, row := range kinds {
		out[k] = row.name
	}
	return out
}

// CheckCols checks a query's column list against its kind before any
// round starts. Without it an extreme query with several columns would
// silently answer for the first only, and one with none would query the
// empty column name.
func CheckCols(k OpKind, cols []string) error {
	if !k.valid() {
		return fmt.Errorf("ownerengine: unknown query kind %v", k)
	}
	switch name := kinds[k].name; kinds[k].family {
	case FamilyAgg:
		if len(cols) == 0 {
			return fmt.Errorf("ownerengine: %s needs at least one aggregation column", name)
		}
	case FamilyExtreme:
		if len(cols) != 1 {
			return fmt.Errorf("ownerengine: %s takes exactly one column, got %d %v", name, len(cols), cols)
		}
	default:
		if len(cols) != 0 {
			return fmt.Errorf("ownerengine: %s takes no columns, got %d %v", name, len(cols), cols)
		}
	}
	return nil
}

// Query is one query against an outsourced table.
type Query struct {
	Kind  OpKind
	Table string
	Cols  []string // see CheckCols
	// Verify runs every result-verification check the paper defines for
	// the kind (§5.2 and the full-version methods); the table must have
	// been outsourced with its verification columns.
	Verify bool
}

// Result is a query's answer; Kind.Family says which fields carry it.
type Result struct {
	// Cells is the result set — the intersection or union — for every
	// family but FamilyCount, which reveals only its size.
	Cells []uint64
	Count int
	// Sums[col][cell] and Counts[cell] (the latter for averages) are the
	// cross-owner aggregates at each result cell.
	Sums   map[string]map[uint64]uint64
	Counts map[uint64]uint64
	// Extreme is the max/min/median at each intersection cell.
	Extreme map[uint64]ExtremeCell
	// Global is the query-global extreme across all intersection cells:
	// for max/min the winning cell's outcome, for median the median of
	// all cells' pooled per-owner values. It comes from one extra
	// announcer round that reduces the vector rounds' retained masked
	// values — the round that makes a group-partitioned deployment's
	// global answer exact without any owner comparing raw values. Nil
	// when the intersection is empty.
	Global *ExtremeCell
	// GlobalCell is the cell holding the global extreme (max/min only;
	// 0 for median, whose global answer pools across cells).
	GlobalCell uint64
	Stats      QueryStats
}

// ExtremeCell is an exemplary aggregation's answer at one cell.
type ExtremeCell struct {
	// Value is the max/min, or the median (for an even number of owners
	// the average of the two middle per-owner values, rounded down).
	Value uint64
	// MedianPair holds the two middle values when m is even.
	MedianPair []uint64
	// Owners lists the owners holding the extreme value (§6.3 Steps
	// 5b-7); nil for median.
	Owners []int
}

// Cohort is every owner of a deployment held by one process. The
// exemplary aggregations need it: each of the m owners must mask and
// submit its own local values (§6.3 Step 3), so a process holding one
// owner's engine cannot run them.
type Cohort struct {
	Owners []*Owner // all m owners' engines, by owner index
	// Announcer is S_a's address in the querying owner's address book.
	Announcer string
}

// ErrUnsupported reports a query this process cannot serve: an
// exemplary aggregation asked of an owner engine that was not handed
// the deployment's Cohort.
var ErrUnsupported = errors.New("ownerengine: unsupported query")

// add accumulates a later round's stats into q.
func (q *QueryStats) add(o QueryStats) {
	q.Server.Add(o.Server)
	q.OwnerNS += o.OwnerNS
	q.WallNS += o.WallNS
	q.Rounds += o.Rounds
	if q.TraceID == "" {
		q.TraceID = o.TraceID
	}
}

// Exec runs one query with this owner driving it: at most two
// owner↔server rounds for everything but the extremes and bpsi, verified
// or not (TestConformance) — find the result set (PSI, its §5.2 proof in
// the same replies when asked, or PSU, which the paper does not verify:
// TestSoundness's gaps), then aggregate over it — for an extreme the
// §6.3/§6.4 vector rounds across co's owners, the global reduce and the
// retirement of the rounds' sessions, and for bpsi one unverified set
// round per bucket-tree level the §6.6 traversal reaches. Every server
// group runs the whole script on its own slice of the domain (script),
// concurrently with the others and never waiting for them between
// rounds: PRISM's servers never talk to each other, so no group's rounds
// depend on another's. One merge then combines the groups' answers; only
// the global reduce and the retirement look across groups. co may be
// nil; extremes then return ErrUnsupported. Safe to call concurrently
// with any other query.
func (o *Owner) Exec(ctx context.Context, q Query, co *Cohort) (*Result, error) {
	if err := CheckCols(q.Kind, q.Cols); err != nil {
		return nil, err
	}
	k := kinds[q.Kind]
	if m := o.View().M; k.family == FamilyExtreme && (co == nil || len(co.Owners) != m) {
		return nil, fmt.Errorf("%w: %s needs all %d owners' engines in one process (the library, or a gateway over System.GatewayBackends); a lone owner engine serves the other kinds",
			ErrUnsupported, k.name, m)
	}
	wall := time.Now()
	// An extreme's id is minted once, by the first group with cells to run
	// a vector round over. The nonce keeps this owner's concurrent and
	// repeated queries from colliding in the servers' qid-keyed session
	// state (e.g. after a re-outsource); the owner index keeps two
	// querying processes apart.
	qid := sync.OnceValue(func() string {
		return fmt.Sprintf("ext-%s-%s-%s-o%d-%d", q.Table, q.Cols[0], k.extreme, o.Index, o.qidNonce.Add(1))
	})
	subs := make([]*Result, len(o.groups))
	rounds := make([]string, len(o.groups)) // rounds[g]: group g's vector-round id, once opened
	err := o.eachGroup(k.name, o.allGroups(), func(g int) (err error) {
		subs[g], err = o.script(ctx, g, q, co, func() string {
			rounds[g] = fmt.Sprintf("%s/g%d", qid(), g)
			return rounds[g]
		})
		return err
	})
	// Retire the rounds' sessions on every path, and only after the global
	// reduce: the announcer's retained per-round values are its input.
	defer o.endQuery(ctx, co, rounds)
	if err != nil {
		return nil, err
	}
	res := o.merge(subs)
	if k.family == FamilyExtreme && len(res.Cells) > 0 {
		if err := o.reduceExtreme(ctx, co, q.Table, k.extreme, rounds, subs, res); err != nil {
			return nil, err
		}
	}
	res.Stats.WallNS = time.Since(wall).Nanoseconds()
	return res, nil
}

// script runs q's whole round script in group g alone, in the group's
// cells: round 1 finds the group's slice of the result set (§5.1 / §7;
// §6.1 Steps 1-3, §6.3 Steps 1-2) or its size (§6.5), round 2 aggregates
// over that slice or runs the vector rounds across co's group-g engines;
// bpsi descends the group's own bucket tree instead (§6.6). round names
// the group's vector round and marks it opened.
func (o *Owner) script(ctx context.Context, g int, q Query, co *Cohort, round func() string) (res *Result, err error) {
	e, k := o.groups[g], kinds[q.Kind]
	if k.bucketed {
		return e.BucketResult(ctx, q.Table)
	}
	res, err = e.SetResult(ctx, setQuery{
		name:    k.name,
		table:   q.Table,
		union:   k.overPSU,
		permute: k.family == FamilyCount,
		verify:  q.Verify && !k.overPSU,
	})
	if err != nil {
		return nil, err
	}
	switch k.family {
	case FamilyAgg:
		// Round 2: selector-weighted Shamir aggregation (§6.1 Steps 3-5) —
		// over an empty slice too, so a group's servers never learn that
		// none of the result set is theirs.
		agg, err := e.Aggregate(ctx, q.Table, res.Cells, q.Cols, k.withCount, q.Verify)
		if err != nil {
			return nil, err
		}
		res.Sums, res.Counts = agg.Sums, agg.Counts
		res.Stats.add(agg.Stats)
	case FamilyExtreme:
		res.Extreme = make(map[uint64]ExtremeCell, len(res.Cells))
		if len(res.Cells) == 0 {
			return res, nil // servers refuse a vector round of k = 0 cells
		}
		cells, err := co.vectorRounds(ctx, g, k.extreme, q.Cols[0], round(), res.Cells, q.Verify, &res.Stats)
		if err != nil {
			return nil, fmt.Errorf("ownerengine: %s: %w", k.extreme, err)
		}
		for c, cell := range res.Cells {
			res.Extreme[cell] = cells[c]
		}
	}
	return res, nil
}

// merge combines the groups' answers into the query's, in the global
// domain: group slices are contiguous and ascending, so cells shifted by
// their group's start concatenate; counts sum; per-cell maps are
// re-keyed.
func (o *Owner) merge(subs []*Result) *Result {
	out, n := &Result{}, 0
	for _, sub := range subs {
		n += len(sub.Cells)
	}
	if n > 0 {
		out.Cells = make([]uint64, 0, n)
	}
	for g, sub := range subs {
		at := o.starts[g]
		for _, c := range sub.Cells {
			out.Cells = append(out.Cells, c+at)
		}
		out.Count += sub.Count
		for col, m := range sub.Sums {
			if out.Sums == nil {
				out.Sums = make(map[string]map[uint64]uint64, len(sub.Sums))
			}
			dst := out.Sums[col]
			rekey(&dst, m, at)
			out.Sums[col] = dst
		}
		rekey(&out.Counts, sub.Counts, at)
		rekey(&out.Extreme, sub.Extreme, at)
		mergeQueryStats(&out.Stats, sub.Stats)
	}
	return out
}

// rekey copies src into *dst with every cell shifted by at, making *dst
// on first use; a nil src leaves *dst as it is.
func rekey[V any](dst *map[uint64]V, src map[uint64]V, at uint64) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = make(map[uint64]V, len(src))
	}
	for c, v := range src {
		(*dst)[c+at] = v
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

// vectorRounds runs the §6.3/§6.4 rounds in group g for every one of the
// group's intersection cells at once: each step is one vector exchange,
// whatever the number of cells. It orchestrates ALL owners' group-g
// engines (each must mask and submit its local values) regardless of
// which owner drove the query. The answers come back parallel to cells.
func (co *Cohort) vectorRounds(ctx context.Context, g int, kind protocol.ExtremeKind, col, qid string, cells []uint64, verify bool, stats *QueryStats) ([]ExtremeCell, error) {
	global := func(c int) uint64 { return co.Owners[0].starts[g] + cells[c] } // for errors
	// Step 3: every owner masks and submits its local values.
	locals := make([][]uint64, len(co.Owners))
	for i, o := range co.Owners {
		vals, has, err := o.localValues(g, kind, col, cells)
		if err != nil {
			return nil, err
		}
		if c := slices.Index(has, false); c >= 0 {
			// The cell is in the intersection, so every owner must hold a tuple there.
			return nil, fmt.Errorf("owner %d has no tuple at intersection cell %d", i, global(c))
		}
		locals[i] = vals
		if err := o.groups[g].SubmitExtreme(ctx, qid, kind, vals); err != nil {
			return nil, err
		}
	}
	stats.Rounds++

	// Steps 4-5a: servers forwarded to S_a; owners fetch and decode.
	// Every owner fetches (each must know z for the claims round).
	var announced *ExtremeOutcome
	for i, o := range co.Owners {
		oc, err := o.groups[g].FetchExtreme(ctx, qid, kind, len(cells))
		if err != nil {
			return nil, err
		}
		stats.OwnerNS += oc.Stats.OwnerNS
		stats.Server.Spans = append(stats.Server.Spans, oc.Stats.Server.Spans...)
		for c, values := range oc.Values {
			if err := checkExtremeConsistency(kind, values[0], locals[i][c]); err != nil {
				return nil, fmt.Errorf("cell %d: %w", global(c), err)
			}
		}
		if i == 0 {
			announced = oc
		}
	}
	stats.Rounds++

	out := make([]ExtremeCell, len(cells))
	for c, values := range announced.Values {
		out[c] = *decodeExtreme(kind, values)
	}
	if kind == protocol.KindMedian {
		return out, nil
	}

	// Steps 5b-7: ownership claims.
	for i, o := range co.Owners {
		holds := make([]bool, len(cells))
		for c := range holds {
			holds[c] = locals[i][c] == out[c].Value
		}
		if err := o.groups[g].SubmitClaim(ctx, qid, holds); err != nil {
			return nil, err
		}
	}
	claims, err := co.Owners[0].groups[g].FetchClaims(ctx, qid, len(cells))
	if err != nil {
		return nil, err
	}
	stats.Rounds++
	for c := range out {
		for i, holds := range claims[c] {
			if holds {
				out[c].Owners = append(out[c].Owners, i)
			}
		}
		// Max verification: the owner behind the announced winning slot
		// decoded its own value, so it — at least — must claim it.
		if verify && !claims[c][announced.WinnerSlots[c]] {
			return nil, fmt.Errorf("cell %d: %w: the announced winner does not claim the %s", global(c), ErrVerificationFailed, kind)
		}
	}
	return out, nil
}

// reduceExtreme runs the query-global final round: the announcer folds
// the vector rounds' retained masked values into one outcome, the
// querier unmasks it. For max/min the winning round and cell index
// identify the winning cell (and thereby the winning owners, already
// resolved by that cell's claims); for median the pooled masked values
// yield the global median directly.
func (o *Owner) reduceExtreme(ctx context.Context, co *Cohort, table string, kind protocol.ExtremeKind, rounds []string, subs []*Result, res *Result) error {
	req := protocol.ExtremeReduceRequest{
		QueryID: fmt.Sprintf("extred-%s-%s-o%d-%d", table, kind, o.Index, o.qidNonce.Add(1)),
		Kind:    kind,
		TraceID: telemetry.TraceID(ctx),
	}
	var byRound []int // the group behind each of req.SubQueryIDs
	for g, id := range rounds {
		if id != "" {
			req.SubQueryIDs = append(req.SubQueryIDs, id)
			byRound = append(byRound, g)
		}
	}
	rep, err := o.groups[0].caller.Call(ctx, co.Announcer, req)
	if err != nil {
		return fmt.Errorf("ownerengine: global %s reduce: %w", kind, err)
	}
	rrep, ok := rep.(protocol.ExtremeReduceReply)
	if !ok {
		return fmt.Errorf("ownerengine: unexpected reduce reply %T", rep)
	}
	res.Stats.Server.Spans = append(res.Stats.Server.Spans, rrep.Spans...)
	values, err := o.decodeReducedExtreme(rrep.Values)
	if err != nil {
		return fmt.Errorf("ownerengine: global %s reduce: %w", kind, err)
	}
	res.Global = decodeExtreme(kind, values)
	res.Stats.Rounds++
	if kind == protocol.KindMedian {
		return nil
	}
	if !rrep.HasWinner || rrep.WinnerSub < 0 || rrep.WinnerSub >= len(byRound) {
		return fmt.Errorf("ownerengine: global %s reduce named no winning round", kind)
	}
	g := byRound[rrep.WinnerSub]
	if rrep.WinnerCell < 0 || rrep.WinnerCell >= len(subs[g].Cells) {
		return fmt.Errorf("ownerengine: global %s reduce named no winning cell", kind)
	}
	res.GlobalCell = o.starts[g] + subs[g].Cells[rrep.WinnerCell]
	winner := res.Extreme[res.GlobalCell]
	if winner.Value != res.Global.Value {
		return fmt.Errorf("%w: global %s %d disagrees with winning cell's %d", ErrVerificationFailed, kind, res.Global.Value, winner.Value)
	}
	res.Global.Owners = append([]int(nil), winner.Owners...)
	return nil
}

// decodeReducedExtreme unmasks the masked values of a global reduce
// reply: the announcer compares and returns the same order-preserving
// masked points it announces per round — F is deployment-global, so
// group 0's polynomial unmasks values from any group's round.
func (o *Owner) decodeReducedExtreme(values [][]byte) ([]uint64, error) {
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

// endQuery retires an extreme query's session state, once per query:
// each opened vector round (rounds[g] non-empty) on the nodes that took
// part in it — the two additive-share servers of the round's group (the
// Shamir server rejects extreme traffic before opening a session) and
// the announcer — and on no other group. Best effort: cleanup failures
// are invisible to the query's caller. The calls are independent
// notifications, so they go out concurrently.
func (o *Owner) endQuery(ctx context.Context, co *Cohort, rounds []string) {
	// Clean up even when the query itself was cancelled.
	ctx = context.WithoutCancel(ctx)
	var wg sync.WaitGroup
	for g, qid := range rounds {
		if qid == "" {
			continue
		}
		req := protocol.QueryDoneRequest{QueryID: qid}
		e := o.groups[g]
		for _, addr := range []string{e.servers[0], e.servers[1], co.Announcer} {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				e.caller.Call(ctx, addr, req)
			}(addr)
		}
	}
	wg.Wait()
}

func decodeExtreme(kind protocol.ExtremeKind, values []uint64) *ExtremeCell {
	out := &ExtremeCell{}
	switch {
	case kind == protocol.KindMedian && len(values) == 2:
		out.MedianPair = values
		out.Value = (values[0] + values[1]) / 2
	default:
		out.Value = values[0]
	}
	return out
}
