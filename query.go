package prism

import (
	"context"

	"prism/internal/ownerengine"
)

// Every query method below is the same three steps — pick the querying
// owner, hand ownerengine.Exec the query, shape the answer — so they all
// go through System.execute / System.run; the round script itself
// (PSI → verify → aggregate, the extreme rounds) lives in
// internal/ownerengine/exec.go and nowhere else.

// run executes one request with ow driving it and adds what only this
// layer knows: the trace id, the domain labels and the QueryStats form.
func (s *System) run(ctx context.Context, ow *Owner, req Request) *Response {
	resp := &Response{Op: req.Op, Owner: ow.idx}
	ctx, tid := s.traceContext(ctx, req.Op.Name())
	res, err := ow.eng.Exec(ctx, ownerengine.Query{
		Kind: req.Op, Table: tableName, Cols: req.Cols, Verify: s.cfg.Verify,
	}, s.cohort)
	if err != nil {
		resp.Err = err
		return resp
	}
	resp.Result = res
	stats := fromEngineStats(res.Stats)
	if tid != "" {
		stats.TraceID = tid
		s.tracer.Record(tid, stats.spans...)
	}
	switch req.Op.Family() {
	case ownerengine.FamilySet:
		resp.Set = &SetResult{Cells: res.Cells, Stats: stats}
		if len(res.Cells) > 0 { // an empty answer keeps its nil Values
			resp.Set.Values = make([]string, len(res.Cells))
		}
		for i, c := range res.Cells {
			resp.Set.Values[i] = s.cfg.Domain.Label(c)
		}
	case ownerengine.FamilyCount:
		resp.Count = &CountResult{Count: res.Count, Stats: stats}
	case ownerengine.FamilyAgg:
		resp.Agg = &AggregateResult{Cells: res.Cells, Sums: res.Sums, Counts: res.Counts, Stats: stats}
	case ownerengine.FamilyExtreme:
		resp.Extreme = &ExtremeResult{Cells: res.Cells, PerCell: res.Extreme,
			Global: res.Global, GlobalCell: res.GlobalCell, Stats: stats}
	}
	return resp
}

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
	r := s.execute(ctx, Request{Op: OpPSI})
	return r.Set, r.Err
}

// PSI computes the private set intersection with this owner driving the
// query. Safe to call concurrently with any other query.
func (o *Owner) PSI(ctx context.Context) (*SetResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSI})
	return r.Set, r.Err
}

// PSU computes the private set union (paper §7). The paper defines
// result verification only for PSI, count, sum and max — PSU replies are
// therefore returned as-is even when the system runs with Verify.
func (s *System) PSU(ctx context.Context) (*SetResult, error) {
	r := s.execute(ctx, Request{Op: OpPSU})
	return r.Set, r.Err
}

// PSU computes the private set union with this owner driving the query.
func (o *Owner) PSU(ctx context.Context) (*SetResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSU})
	return r.Set, r.Err
}

// CountResult is a PSI/PSU cardinality answer (§6.5). Only the count is
// revealed — not which values are in the result.
type CountResult struct {
	Count int
	Stats QueryStats
}

// PSICount reveals only |intersection| (paper §6.5).
func (s *System) PSICount(ctx context.Context) (*CountResult, error) {
	r := s.execute(ctx, Request{Op: OpPSICount})
	return r.Count, r.Err
}

// PSICount reveals only |intersection|, driven by this owner.
func (o *Owner) PSICount(ctx context.Context) (*CountResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSICount})
	return r.Count, r.Err
}

// PSUCount reveals only |union|.
func (s *System) PSUCount(ctx context.Context) (*CountResult, error) {
	r := s.execute(ctx, Request{Op: OpPSUCount})
	return r.Count, r.Err
}

// PSUCount reveals only |union|, driven by this owner.
func (o *Owner) PSUCount(ctx context.Context) (*CountResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSUCount})
	return r.Count, r.Err
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
	r := s.execute(ctx, Request{Op: OpPSISum, Cols: cols})
	return r.Agg, r.Err
}

// PSISum computes the PSI-sum query driven by this owner.
func (o *Owner) PSISum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSISum, Cols: cols})
	return r.Agg, r.Err
}

// PSIAvg computes the PSI-average query of §6.2 (sum and count columns in
// one round).
func (s *System) PSIAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := s.execute(ctx, Request{Op: OpPSIAvg, Cols: cols})
	return r.Agg, r.Err
}

// PSIAvg computes the PSI-average query driven by this owner.
func (o *Owner) PSIAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSIAvg, Cols: cols})
	return r.Agg, r.Err
}

// PSUSum aggregates over the union instead of the intersection (§2(3)).
func (s *System) PSUSum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := s.execute(ctx, Request{Op: OpPSUSum, Cols: cols})
	return r.Agg, r.Err
}

// PSUSum aggregates over the union, driven by this owner.
func (o *Owner) PSUSum(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSUSum, Cols: cols})
	return r.Agg, r.Err
}

// PSUAvg averages over the union.
func (s *System) PSUAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := s.execute(ctx, Request{Op: OpPSUAvg, Cols: cols})
	return r.Agg, r.Err
}

// PSUAvg averages over the union, driven by this owner.
func (o *Owner) PSUAvg(ctx context.Context, cols ...string) (*AggregateResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSUAvg, Cols: cols})
	return r.Agg, r.Err
}

// ExtremeResult is an exemplary aggregation (max/min/median, §6.3-§6.4)
// over the PSI result, computed per intersection value.
type ExtremeResult struct {
	Cells   []uint64
	PerCell map[uint64]ExtremeCell
	// Global is the query-global extreme across all intersection cells
	// and GlobalCell the cell holding it; see ownerengine.Result.
	Global     *ExtremeCell
	GlobalCell uint64
	Stats      QueryStats
}

// ExtremeCell is the answer at one intersection value.
type ExtremeCell = ownerengine.ExtremeCell

// PSIMax finds, for every intersection value, the maximum of col across
// all owners and which owners hold it (paper §6.3).
func (s *System) PSIMax(ctx context.Context, col string) (*ExtremeResult, error) {
	r := s.execute(ctx, Request{Op: OpPSIMax, Cols: []string{col}})
	return r.Extreme, r.Err
}

// PSIMax runs the max query with this owner driving the PSI round.
func (o *Owner) PSIMax(ctx context.Context, col string) (*ExtremeResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSIMax, Cols: []string{col}})
	return r.Extreme, r.Err
}

// PSIMin is the symmetric minimum query.
func (s *System) PSIMin(ctx context.Context, col string) (*ExtremeResult, error) {
	r := s.execute(ctx, Request{Op: OpPSIMin, Cols: []string{col}})
	return r.Extreme, r.Err
}

// PSIMin runs the min query with this owner driving the PSI round.
func (o *Owner) PSIMin(ctx context.Context, col string) (*ExtremeResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSIMin, Cols: []string{col}})
	return r.Extreme, r.Err
}

// PSIMedian finds the median of the per-owner totals of col (paper §6.4).
func (s *System) PSIMedian(ctx context.Context, col string) (*ExtremeResult, error) {
	r := s.execute(ctx, Request{Op: OpPSIMedian, Cols: []string{col}})
	return r.Extreme, r.Err
}

// PSIMedian runs the median query with this owner driving the PSI round.
func (o *Owner) PSIMedian(ctx context.Context, col string) (*ExtremeResult, error) {
	r := o.sys.run(ctx, o, Request{Op: OpPSIMedian, Cols: []string{col}})
	return r.Extreme, r.Err
}
