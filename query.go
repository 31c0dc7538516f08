package prism

import (
	"context"
	"fmt"
	"slices"
	"time"

	"prism/internal/ownerengine"
	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// SetResult is a PSI or PSU answer.
type SetResult struct {
	// Cells are the natural-order domain cells in the result set.
	Cells []uint64
	// Values are the decoded domain labels, parallel to Cells.
	Values []string
	Stats  QueryStats
}

// PSI computes the private set intersection over the common attribute
// (paper §5.1), verifying the result when the system was built with
// Verify (§5.2). The querying owner rotates round-robin; use
// Owner.PSI to query as a specific owner.
func (s *System) PSI(ctx context.Context) (*SetResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSI(ctx)
}

// PSI computes the private set intersection with this owner driving the
// query. Safe to call concurrently with any other query.
func (o *Owner) PSI(ctx context.Context) (*SetResult, error) {
	s, q := o.sys, o.eng
	ctx, tid := s.traceContext(ctx, "psi")
	res, err := q.PSI(ctx, s.table)
	if err != nil {
		return nil, err
	}
	if s.cfg.Verify {
		if err := q.VerifyPSI(ctx, s.table, res); err != nil {
			return nil, err
		}
	}
	stats := fromEngineStats(res.Stats)
	s.recordTrace(tid, stats.spans)
	return s.setResult(res.Cells, stats), nil
}

// PSU computes the private set union (paper §7). The paper defines
// result verification only for PSI, count, sum and max — PSU replies are
// therefore returned as-is even when the system runs with Verify.
func (s *System) PSU(ctx context.Context) (*SetResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSU(ctx)
}

// PSU computes the private set union with this owner driving the query.
func (o *Owner) PSU(ctx context.Context) (*SetResult, error) {
	s, q := o.sys, o.eng
	ctx, tid := s.traceContext(ctx, "psu")
	res, err := q.PSU(ctx, s.table)
	if err != nil {
		return nil, err
	}
	stats := fromEngineStats(res.Stats)
	s.recordTrace(tid, stats.spans)
	return s.setResult(res.Cells, stats), nil
}

func (s *System) setResult(cells []uint64, stats QueryStats) *SetResult {
	out := &SetResult{Cells: cells, Stats: stats}
	for _, c := range cells {
		out.Values = append(out.Values, s.cfg.Domain.Label(c))
	}
	return out
}

// CountResult is a PSI/PSU cardinality answer (§6.5). Only the count is
// revealed — not which values are in the result.
type CountResult struct {
	Count int
	Stats QueryStats
}

// PSICount reveals only |intersection| (paper §6.5).
func (s *System) PSICount(ctx context.Context) (*CountResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSICount(ctx)
}

// PSICount reveals only |intersection|, driven by this owner.
func (o *Owner) PSICount(ctx context.Context) (*CountResult, error) {
	s, q := o.sys, o.eng
	ctx, tid := s.traceContext(ctx, "psicount")
	res, err := q.Count(ctx, s.table, s.cfg.Verify)
	if err != nil {
		return nil, err
	}
	stats := fromEngineStats(res.Stats)
	s.recordTrace(tid, stats.spans)
	return &CountResult{Count: res.Count, Stats: stats}, nil
}

// PSUCount reveals only |union|.
func (s *System) PSUCount(ctx context.Context) (*CountResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSUCount(ctx)
}

// PSUCount reveals only |union|, driven by this owner.
func (o *Owner) PSUCount(ctx context.Context) (*CountResult, error) {
	s, q := o.sys, o.eng
	ctx, tid := s.traceContext(ctx, "psucount")
	res, err := q.PSUCount(ctx, s.table)
	if err != nil {
		return nil, err
	}
	stats := fromEngineStats(res.Stats)
	s.recordTrace(tid, stats.spans)
	return &CountResult{Count: res.Count, Stats: stats}, nil
}

// AggregateResult is a summary aggregation over PSI or PSU (§6.1-§6.2):
// per result-set value, the cross-owner aggregate.
type AggregateResult struct {
	// Cells is the result set (intersection or union) the aggregation
	// grouped on.
	Cells []uint64
	// Sums[col][cell] is the total of column col at the cell.
	Sums map[string]map[uint64]uint64
	// Counts[cell] is the tuple count (for averages).
	Counts map[uint64]uint64
	Stats  QueryStats
}

// Sum returns the aggregate for a column at a cell.
func (r *AggregateResult) Sum(col string, cell uint64) (uint64, bool) {
	v, ok := r.Sums[col][cell]
	return v, ok
}

// Avg returns the average for a column at a cell.
func (r *AggregateResult) Avg(col string, cell uint64) (float64, bool) {
	sum, ok := r.Sums[col][cell]
	if !ok {
		return 0, false
	}
	cnt, ok := r.Counts[cell]
	if !ok || cnt == 0 {
		return 0, false
	}
	return float64(sum) / float64(cnt), true
}

// PSISum computes the PSI-sum query of §6.1 over one or more aggregation
// columns (Table 12 exercises 1-4 columns in one query).
func (s *System) PSISum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSISum(ctx, cols...)
}

// PSISum computes the PSI-sum query driven by this owner.
func (o *Owner) PSISum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	return o.aggregate(ctx, true, false, cols)
}

// PSIAvg computes the PSI-average query of §6.2 (sum and count columns in
// one round).
func (s *System) PSIAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSIAvg(ctx, cols...)
}

// PSIAvg computes the PSI-average query driven by this owner.
func (o *Owner) PSIAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	return o.aggregate(ctx, true, true, cols)
}

// PSUSum aggregates over the union instead of the intersection (§2(3)).
func (s *System) PSUSum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSUSum(ctx, cols...)
}

// PSUSum aggregates over the union, driven by this owner.
func (o *Owner) PSUSum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	return o.aggregate(ctx, false, false, cols)
}

// PSUAvg averages over the union.
func (s *System) PSUAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSUAvg(ctx, cols...)
}

// PSUAvg averages over the union, driven by this owner.
func (o *Owner) PSUAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	return o.aggregate(ctx, false, true, cols)
}

func (o *Owner) aggregate(ctx context.Context, overPSI, withCount bool, cols []string) (*AggregateResult, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("prism: aggregation needs at least one column")
	}
	s, q := o.sys, o.eng
	ctx, tid := s.traceContext(ctx, "aggregate")
	// Round 1: find the result set (§6.1 Steps 1-3).
	var cells []uint64
	var stats QueryStats
	if overPSI {
		res, err := q.PSI(ctx, s.table)
		if err != nil {
			return nil, err
		}
		if s.cfg.Verify {
			if err := q.VerifyPSI(ctx, s.table, res); err != nil {
				return nil, err
			}
		}
		cells = res.Cells
		stats.add(res.Stats)
	} else {
		res, err := q.PSU(ctx, s.table)
		if err != nil {
			return nil, err
		}
		cells = res.Cells
		stats.add(res.Stats)
	}
	// Round 2: selector-weighted Shamir aggregation (§6.1 Steps 3-5).
	agg, err := q.Aggregate(ctx, s.table, cells, cols, withCount, s.cfg.Verify)
	if err != nil {
		return nil, err
	}
	stats.add(agg.Stats)
	s.recordTrace(tid, stats.spans)
	return &AggregateResult{
		Cells:  cells,
		Sums:   agg.Sums,
		Counts: agg.Counts,
		Stats:  stats,
	}, nil
}

// ExtremeResult is an exemplary aggregation (max/min/median, §6.3-§6.4)
// over the PSI result, computed per intersection value.
type ExtremeResult struct {
	Cells   []uint64
	PerCell map[uint64]ExtremeCell
	// Global is the query-global extreme across all intersection cells:
	// for max/min the winning cell's outcome, for median the median of
	// all cells' pooled per-owner values. With more than one cell it
	// comes from one extra announcer round that reduces the per-cell
	// rounds' retained masked values — the round that makes a
	// group-partitioned deployment's global answer exact without any
	// owner comparing raw values. Nil when the intersection is empty.
	Global *ExtremeCell
	// GlobalCell is the cell holding the global extreme (max/min only;
	// 0 for median, whose global answer pools across cells).
	GlobalCell uint64
	Stats      QueryStats
}

// ExtremeCell is the answer at one intersection value.
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

// PSIMax finds, for every intersection value, the maximum of col across
// all owners and which owners hold it (paper §6.3).
func (s *System) PSIMax(ctx context.Context, col string) (*ExtremeResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSIMax(ctx, col)
}

// PSIMax runs the max query with this owner driving the PSI round.
func (o *Owner) PSIMax(ctx context.Context, col string) (*ExtremeResult, error) {
	return o.extreme(ctx, protocol.KindMax, col)
}

// PSIMin is the symmetric minimum query.
func (s *System) PSIMin(ctx context.Context, col string) (*ExtremeResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSIMin(ctx, col)
}

// PSIMin runs the min query with this owner driving the PSI round.
func (o *Owner) PSIMin(ctx context.Context, col string) (*ExtremeResult, error) {
	return o.extreme(ctx, protocol.KindMin, col)
}

// PSIMedian finds the median of the per-owner totals of col (paper §6.4).
func (s *System) PSIMedian(ctx context.Context, col string) (*ExtremeResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	return ow.PSIMedian(ctx, col)
}

// PSIMedian runs the median query with this owner driving the PSI round.
func (o *Owner) PSIMedian(ctx context.Context, col string) (*ExtremeResult, error) {
	return o.extreme(ctx, protocol.KindMedian, col)
}

func (o *Owner) extreme(ctx context.Context, kind protocol.ExtremeKind, col string) (*ExtremeResult, error) {
	s, q := o.sys, o.eng
	wall := time.Now()
	ctx, tid := s.traceContext(ctx, "extreme")
	// Round 1: PSI (§6.3 Steps 1-2). Every owner learns the common cells.
	psi, err := q.PSI(ctx, s.table)
	if err != nil {
		return nil, err
	}
	if s.cfg.Verify {
		if err := q.VerifyPSI(ctx, s.table, psi); err != nil {
			return nil, err
		}
	}
	res := &ExtremeResult{Cells: psi.Cells, PerCell: make(map[uint64]ExtremeCell, len(psi.Cells))}
	var stats QueryStats
	stats.add(psi.Stats)
	if len(psi.Cells) > 0 {
		// The nonce keeps concurrent and repeated queries from colliding in
		// the servers' qid-keyed session state (e.g. after a re-outsource).
		qid := fmt.Sprintf("ext-%s-%s-%s-%d", s.table, col, kind, s.qidNonce.Add(1))
		rounds, err := q.ExtremeRounds(qid, psi.Cells)
		if err != nil {
			return nil, err
		}
		// Retire the rounds' sessions only after the global reduce: the
		// announcer's retained per-round values are its input.
		defer s.endQuery(ctx, rounds)
		cells, err := s.extremeRounds(ctx, kind, col, qid, psi.Cells, &stats)
		if err != nil {
			return nil, fmt.Errorf("prism: %s: %w", kind, err)
		}
		for c, cell := range psi.Cells {
			res.PerCell[cell] = cells[c]
		}
		if err := s.reduceExtreme(ctx, q, kind, rounds, res, &stats); err != nil {
			return nil, err
		}
	}
	stats.WallNS = time.Since(wall).Nanoseconds()
	if tid != "" {
		stats.TraceID = tid
		s.recordTrace(tid, stats.spans)
	}
	res.Stats = stats
	return res, nil
}

// reduceExtreme runs the query-global final round: the announcer folds
// the vector rounds' retained masked values into one outcome, the
// querier unmasks it. For max/min the winning round and cell index
// identify the winning cell (and thereby the winning owners, already
// resolved by that cell's claims); for median the pooled masked values
// yield the global median directly.
func (s *System) reduceExtreme(ctx context.Context, q *ownerengine.Owner, kind protocol.ExtremeKind, rounds []ownerengine.ExtremeRound, res *ExtremeResult, stats *QueryStats) error {
	req := protocol.ExtremeReduceRequest{
		QueryID: fmt.Sprintf("extred-%s-%s-%d", s.table, kind, s.qidNonce.Add(1)),
		Kind:    kind,
		TraceID: telemetry.TraceID(ctx),
	}
	for _, r := range rounds {
		req.SubQueryIDs = append(req.SubQueryIDs, r.QueryID)
	}
	rep, err := s.network.Call(ctx, "announcer", req)
	if err != nil {
		return fmt.Errorf("prism: global %s reduce: %w", kind, err)
	}
	rrep, ok := rep.(protocol.ExtremeReduceReply)
	if !ok {
		return fmt.Errorf("prism: unexpected reduce reply %T", rep)
	}
	stats.spans = append(stats.spans, rrep.Spans...)
	values, err := q.DecodeReducedExtreme(kind, rrep.Values)
	if err != nil {
		return fmt.Errorf("prism: global %s reduce: %w", kind, err)
	}
	res.Global = decodeExtreme(kind, values)
	stats.Rounds++
	if kind == protocol.KindMedian {
		return nil
	}
	if !rrep.HasWinner || rrep.WinnerSub < 0 || rrep.WinnerSub >= len(rounds) {
		return fmt.Errorf("prism: global %s reduce named no winning round", kind)
	}
	won := rounds[rrep.WinnerSub]
	if rrep.WinnerCell < 0 || rrep.WinnerCell >= won.Hi-won.Lo {
		return fmt.Errorf("prism: global %s reduce named no winning cell", kind)
	}
	res.GlobalCell = res.Cells[won.Lo+rrep.WinnerCell]
	winner := res.PerCell[res.GlobalCell]
	if winner.Value != res.Global.Value {
		return fmt.Errorf("%w: global %s %d disagrees with winning cell's %d", ErrVerificationFailed, kind, res.Global.Value, winner.Value)
	}
	res.Global.Owners = append([]int(nil), winner.Owners...)
	return nil
}

// extremeRounds runs the §6.3/§6.4 rounds for every intersection value
// at once: each step is one vector exchange per server group, whatever
// the number of cells. It orchestrates ALL owners (each must mask and
// submit its local values) regardless of which owner drove the query;
// the owner engines split the cells by owning group. The caller retires
// the rounds' session state — after the global reduce, which reads the
// announcer's retained values. The answers come back parallel to cells.
func (s *System) extremeRounds(ctx context.Context, kind protocol.ExtremeKind, col, qid string, cells []uint64, stats *QueryStats) ([]ExtremeCell, error) {
	at := func(c int) string { return fmt.Sprintf("at %q", s.cfg.Domain.Label(cells[c])) }

	// Step 3: every owner masks and submits its local values.
	locals := make([][]uint64, len(s.owners))
	for i, o := range s.owners {
		vals, has, err := o.eng.LocalValues(kind, col, cells)
		if err != nil {
			return nil, err
		}
		if c := slices.Index(has, false); c >= 0 {
			// The cell is in the intersection, so every owner must hold a tuple there.
			return nil, fmt.Errorf("%s: owner %d has no tuple at intersection cell %d", at(c), i, cells[c])
		}
		locals[i] = vals
		if err := o.eng.SubmitExtreme(ctx, qid, kind, cells, vals); err != nil {
			return nil, err
		}
	}
	stats.Rounds++

	// Steps 4-5a: servers forwarded to S_a; owners fetch and decode.
	// Every owner fetches (each must know z for the claims round).
	var announced *ownerengine.ExtremeOutcome
	for i, o := range s.owners {
		oc, err := o.eng.FetchExtreme(ctx, qid, kind, cells)
		if err != nil {
			return nil, err
		}
		stats.OwnerNS += oc.Stats.OwnerNS
		stats.spans = append(stats.spans, oc.Stats.Server.Spans...)
		for c, values := range oc.Values {
			if err := ownerengine.CheckExtremeConsistency(kind, values[0], locals[i][c]); err != nil {
				return nil, fmt.Errorf("%s: %w", at(c), err)
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
	for i, o := range s.owners {
		holds := make([]bool, len(cells))
		for c := range holds {
			holds[c] = locals[i][c] == out[c].Value
		}
		if err := o.eng.SubmitClaim(ctx, qid, cells, holds); err != nil {
			return nil, err
		}
	}
	claims, err := s.owners[0].eng.FetchClaims(ctx, qid, cells)
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
		if s.cfg.Verify && !claims[c][announced.WinnerSlots[c]] {
			return nil, fmt.Errorf("%s: %w: the announced winner does not claim the %s", at(c), ErrVerificationFailed, kind)
		}
	}
	return out, nil
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
