package ownerengine

import (
	"context"
	"fmt"
	"time"

	"prism/internal/field"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/telemetry"
)

// AggResult is the outcome of a summary aggregation (sum/avg/count-
// weighted) over PSI or PSU (paper §6.1, §6.2).
type AggResult struct {
	// Sums[col][cell] is the cross-owner total of column col at each
	// selected cell.
	Sums map[string]map[uint64]uint64
	// Counts[cell] is the cross-owner tuple count at each selected cell
	// (present when requested; used for averages).
	Counts map[uint64]uint64
	Stats  QueryStats
}

// Avg returns Sums[col][cell] / Counts[cell] as a float.
func (r *AggResult) Avg(col string, cell uint64) (float64, bool) {
	s, okS := r.Sums[col][cell]
	c, okC := r.Counts[cell]
	if !okS || !okC || c == 0 {
		return 0, false
	}
	return float64(s) / float64(c), true
}

// Aggregate runs round 2 of the §6.1 pipeline: given the selected cells
// (the PSI intersection or PSU union from round 1), the owner builds the
// 0/1 selector z, Shamir-shares it to the three servers, and Lagrange-
// interpolates the returned degree-2 share vectors.
//
// With verify, an independently-shared selector is evaluated against the
// PF_db2-ordered v-columns and the two reconstructions are compared at
// every cell — a server that skips or fabricates cells cannot keep both
// copies consistent without knowing PF_db2⊙PF_db1⁻¹ (paper §5.2).
//
// Every request carries only a window of the selector shares and every
// reply a window of the degree-2 sums; each window is
// Lagrange-interpolated into a single stored-order accumulator as its
// three replies arrive, so the owner holds one reconstruction vector per
// column instead of three servers' worth of reply vectors.
func (o *engine) Aggregate(ctx context.Context, table string, selected []uint64, cols []string, withCount, verify bool) (*AggResult, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	b := o.view.B
	for _, c := range selected {
		if c >= b {
			return nil, fmt.Errorf("ownerengine: selected cell %d out of range", c)
		}
	}
	sess := o.newSession("agg")

	start := time.Now()
	// The selector z (z_c = 1 for each selected c) is built in stored
	// order: c sits at DB1[c] on the χ side and DB2[c] on the χ̄ side. The
	// splitter only reads it, so the χ̄ selector reuses the buffer.
	zStored := make([]uint64, b)
	for _, c := range selected {
		zStored[o.view.DB1[c]] = 1
	}
	zShares := share.ShamirSplitVector(sess.rng, zStored, 1, 3)
	var vzShares [][]uint64
	if verify {
		clear(zStored)
		for _, c := range selected {
			zStored[o.view.DB2[c]] = 1
		}
		vzShares = share.ShamirSplitVector(sess.rng, zStored, 1, 3)
	}
	ownerNS := time.Since(start).Nanoseconds()

	// Stored-order accumulators, one per requested column (+count), each
	// filled window by window as shard replies land.
	sums := make(map[string][]uint64, len(cols))
	vsums := make(map[string][]uint64)
	for _, col := range cols {
		sums[col] = make([]uint64, b)
		if verify {
			vsums[col] = make([]uint64, b)
		}
	}
	var cnts, vcnts []uint64
	if withCount {
		cnts = make([]uint64, b)
		if verify {
			vcnts = make([]uint64, b)
		}
	}

	qid := sess.qid
	var stats QueryStats
	stats.Rounds = 1
	err := o.forEachShard(ctx, o.plan(b), 3, func(phi int, rg protocol.Range) any {
		req := protocol.AggRequest{
			Table:     table,
			QueryID:   qid,
			Group:     o.view.Group,
			Cols:      cols,
			WithCount: withCount,
			Z:         zShares[phi][rg.Offset:rg.End()],
			TraceID:   tid,
			Shard:     rg,
		}
		if verify {
			req.VZ = vzShares[phi][rg.Offset:rg.End()]
		}
		return req
	}, func(rg protocol.Range, replies []any) error {
		reps := make([]protocol.AggReply, 3)
		for phi, r := range replies {
			rep, ok := r.(protocol.AggReply)
			if !ok {
				return fmt.Errorf("ownerengine: unexpected aggregation reply %T", r)
			}
			reps[phi] = rep
			stats.Server.Add(rep.Stats)
		}
		start := time.Now()
		for _, col := range cols {
			if err := o.interpolateWindow(sums[col], rg,
				reps[0].Sums[col], reps[1].Sums[col], reps[2].Sums[col]); err != nil {
				return fmt.Errorf("ownerengine: column %q: %w", col, err)
			}
			if verify {
				if err := o.interpolateWindow(vsums[col], rg,
					reps[0].VSums[col], reps[1].VSums[col], reps[2].VSums[col]); err != nil {
					return fmt.Errorf("%w: v-column %q: %v", ErrVerificationFailed, col, err)
				}
			}
		}
		if withCount {
			if err := o.interpolateWindow(cnts, rg,
				reps[0].Counts, reps[1].Counts, reps[2].Counts); err != nil {
				return fmt.Errorf("ownerengine: count column: %w", err)
			}
			if verify {
				if err := o.interpolateWindow(vcnts, rg,
					reps[0].VCounts, reps[1].VCounts, reps[2].VCounts); err != nil {
					return fmt.Errorf("%w: v-count column: %v", ErrVerificationFailed, err)
				}
			}
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}

	start = time.Now()
	// Recombination reads the stored-order reconstructions through the
	// owner permutations: cell i is sums[DB1[i]] and, on the χ̄ side,
	// vsums[DB2[i]]. The §5.2 check covers every cell, selected or not.
	res := &AggResult{Sums: make(map[string]map[uint64]uint64, len(cols))}
	for _, col := range cols {
		if verify {
			if i := o.mismatch(sums[col], vsums[col]); i >= 0 {
				return nil, fmt.Errorf("%w: column %q cell %d differs between main and verification copies", ErrVerificationFailed, col, i)
			}
		}
		res.Sums[col] = o.pick(sums[col], selected)
	}
	if withCount {
		if verify {
			if i := o.mismatch(cnts, vcnts); i >= 0 {
				return nil, fmt.Errorf("%w: count cell %d differs between main and verification copies", ErrVerificationFailed, i)
			}
		}
		res.Counts = o.pick(cnts, selected)
	}
	stats.OwnerNS = ownerNS + stats.OwnerNS + time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	res.Stats = stats
	return res, nil
}

// mismatch compares the main and verification reconstructions cell by
// cell in natural order — main[DB1[i]] against ver[DB2[i]] — and returns
// the first cell where they differ, or -1 when none does.
func (o *engine) mismatch(main, ver []uint64) int {
	db2 := o.view.DB2
	for i, at := range o.view.DB1 {
		if main[at] != ver[db2[i]] {
			return i
		}
	}
	return -1
}

// pick returns the selected cells' values of a stored-order
// reconstruction, keyed by natural cell.
func (o *engine) pick(stored, selected []uint64) map[uint64]uint64 {
	picked := make(map[uint64]uint64, len(selected))
	for _, c := range selected {
		picked[c] = stored[o.view.DB1[c]]
	}
	return picked
}

// interpolateWindow Lagrange-interpolates one window of three degree-2
// share vectors into dst[rg.Offset:rg.End()) (stored order): the three
// weighted products are summed at full width and reduced once per cell.
func (o *engine) interpolateWindow(dst []uint64, rg protocol.Range, s0, s1, s2 []uint64) error {
	n := int(rg.Count)
	if len(s0) != n || len(s1) != n || len(s2) != n {
		return fmt.Errorf("share vectors have %d/%d/%d cells, want %d", len(s0), len(s1), len(s2), n)
	}
	w0, w1, w2 := o.w3[0], o.w3[1], o.w3[2]
	out := dst[rg.Offset:rg.End()]
	for i := range out {
		hi, lo := field.MulAdd128(0, 0, w0, s0[i])
		hi, lo = field.MulAdd128(hi, lo, w1, s1[i])
		hi, lo = field.MulAdd128(hi, lo, w2, s2[i])
		out[i] = field.Reduce128(hi, lo)
	}
	return nil
}
