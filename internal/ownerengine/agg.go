package ownerengine

import (
	"context"
	"fmt"
	"time"

	"prism/internal/field"
	"prism/internal/perm"
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
	z := make([]uint64, b)
	for _, c := range selected {
		z[c] = 1
	}
	zStored := perm.Apply(o.view.DB1, z, nil)
	zShares := share.ShamirSplitVector(sess.rng, zStored, 1, 3)
	var vzShares [][]uint64
	if verify {
		vzStored := perm.Apply(o.view.DB2, z, nil)
		vzShares = share.ShamirSplitVector(sess.rng, vzStored, 1, 3)
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
	res := &AggResult{Sums: make(map[string]map[uint64]uint64, len(cols))}
	for _, col := range cols {
		nat := perm.ApplyInverse(o.view.DB1, sums[col], nil)
		if verify {
			vnat := perm.ApplyInverse(o.view.DB2, vsums[col], nil)
			for i := range nat {
				if nat[i] != vnat[i] {
					return nil, fmt.Errorf("%w: column %q cell %d differs between main and verification copies", ErrVerificationFailed, col, i)
				}
			}
		}
		picked := make(map[uint64]uint64, len(selected))
		for _, c := range selected {
			picked[c] = nat[c]
		}
		res.Sums[col] = picked
	}
	if withCount {
		nat := perm.ApplyInverse(o.view.DB1, cnts, nil)
		if verify {
			vnat := perm.ApplyInverse(o.view.DB2, vcnts, nil)
			for i := range nat {
				if nat[i] != vnat[i] {
					return nil, fmt.Errorf("%w: count cell %d differs between main and verification copies", ErrVerificationFailed, i)
				}
			}
		}
		res.Counts = make(map[uint64]uint64, len(selected))
		for _, c := range selected {
			res.Counts[c] = nat[c]
		}
	}
	stats.OwnerNS = ownerNS + stats.OwnerNS + time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	res.Stats = stats
	return res, nil
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
