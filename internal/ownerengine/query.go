package ownerengine

import (
	"context"
	"fmt"
	"time"

	"prism/internal/modmath"
	"prism/internal/perm"
	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// SetResult is the outcome of a PSI or PSU query: the natural-order cell
// indices in the result set, the owner's combined fop vector (kept for
// verification, Equation 10), and cost stats.
type SetResult struct {
	Cells []uint64
	fop   []uint64 // natural order; PSI: 1 ⇔ common. PSU: nonzero ⇔ in union
	Stats QueryStats
}

// PSI runs the §5.1 protocol and returns the common cells, writing the
// natural-order fop vector into fop (view.B cells, the caller's slice of
// the global vector). The stored-order vector is fetched window by
// window and the per-cell recombination (Equation 4) folds each window
// in as its pair of replies arrives, so no reply frame is larger than a
// window.
func (o *engine) PSI(ctx context.Context, table string, fop []uint64) (*SetResult, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psi").qid
	b := o.view.B
	eta := o.view.Eta
	one := 1 % eta
	var stats QueryStats
	stats.Rounds = 1
	fopStored := make([]uint64, b)
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.PSIRequest{Table: table, QueryID: qid, Group: o.view.Group, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		outs, err := psiPair(replies, rg, &stats)
		if err != nil {
			return err
		}
		start := time.Now()
		// fop_i ← out¹_i · out²_i mod η (Equation 4), stored order.
		for i := range outs[0] {
			fopStored[rg.Offset+uint64(i)] = modmath.MulMod(outs[0][i], outs[1][i], eta)
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	perm.ApplyInverse(o.view.DB1, fopStored, fop) // undo PF_db1
	var cells []uint64
	for i, v := range fop {
		if v == one {
			cells = append(cells, uint64(i))
		}
	}
	stats.OwnerNS += time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &SetResult{Cells: cells, fop: fop, Stats: stats}, nil
}

// psiPair type-checks and length-checks one window's pair of PSI replies.
func psiPair(replies []any, rg protocol.Range, stats *QueryStats) ([2][]uint64, error) {
	var outs [2][]uint64
	for phi, r := range replies {
		rep, ok := r.(protocol.PSIReply)
		if !ok {
			return outs, fmt.Errorf("ownerengine: unexpected PSI reply %T", r)
		}
		outs[phi] = rep.Out
		stats.Server.Add(rep.Stats)
	}
	if uint64(len(outs[0])) != rg.Count || uint64(len(outs[1])) != rg.Count {
		return outs, fmt.Errorf("ownerengine: PSI reply length mismatch (%d, %d)", len(outs[0]), len(outs[1]))
	}
	return outs, nil
}

// VerifyPSI runs the §5.2 verification round against a prior PSI result:
// fetch the χ̄-side vectors, recombine, and require r1_i·r2_i ≡ 1 (mod η)
// at every cell (Equation 10). Returns ErrVerificationFailed on tamper.
func (o *engine) VerifyPSI(ctx context.Context, table string, res *SetResult) error {
	if res == nil || uint64(len(res.fop)) != o.view.B {
		return fmt.Errorf("ownerengine: VerifyPSI needs the PSI result vector")
	}
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psiv").qid
	b := o.view.B
	eta := o.view.Eta
	one := 1 % eta
	r2Stored := make([]uint64, b)
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.PSIVerifyRequest{Table: table, QueryID: qid, Group: o.view.Group, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		var vouts [2][]uint64
		for phi, r := range replies {
			rep, ok := r.(protocol.PSIVerifyReply)
			if !ok {
				return fmt.Errorf("ownerengine: unexpected verify reply %T", r)
			}
			vouts[phi] = rep.Vout
			res.Stats.Server.Add(rep.Stats)
		}
		if uint64(len(vouts[0])) != rg.Count || uint64(len(vouts[1])) != rg.Count {
			return fmt.Errorf("ownerengine: verify reply length mismatch")
		}
		start := time.Now()
		for i := range vouts[0] {
			r2Stored[rg.Offset+uint64(i)] = modmath.MulMod(vouts[0][i], vouts[1][i], eta)
		}
		res.Stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return err
	}
	start := time.Now()
	r2 := perm.ApplyInverse(o.view.DB2, r2Stored, nil)
	for i := range r2 {
		if modmath.MulMod(res.fop[i], r2[i], eta) != one {
			return fmt.Errorf("%w: PSI cell %d fails r1·r2 ≡ 1", ErrVerificationFailed, i)
		}
	}
	res.Stats.OwnerNS += time.Since(start).Nanoseconds()
	res.Stats.Rounds++
	o.finishTrace(&res.Stats, tid, qid, wall)
	return nil
}

// PSU runs the §7 protocol and returns the union cells, writing the
// natural-order fop vector into fop as PSI does.
func (o *engine) PSU(ctx context.Context, table string, fop []uint64) (*SetResult, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psu").qid
	b := o.view.B
	delta := o.view.Delta
	var stats QueryStats
	stats.Rounds = 1
	fopStored := make([]uint64, b)
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.PSURequest{Table: table, QueryID: qid, Group: o.view.Group, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		outs, err := psuPair(replies, rg, &stats)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := range outs[0] {
			fopStored[rg.Offset+uint64(i)] = (uint64(outs[0][i]) + uint64(outs[1][i])) % delta // Equation 19
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	perm.ApplyInverse(o.view.DB1, fopStored, fop)
	var cells []uint64
	for i, v := range fop {
		if v != 0 {
			cells = append(cells, uint64(i))
		}
	}
	stats.OwnerNS += time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &SetResult{Cells: cells, fop: fop, Stats: stats}, nil
}

// psuPair type-checks and length-checks one window's pair of PSU replies.
func psuPair(replies []any, rg protocol.Range, stats *QueryStats) ([2][]uint16, error) {
	var outs [2][]uint16
	for phi, r := range replies {
		rep, ok := r.(protocol.PSUReply)
		if !ok {
			return outs, fmt.Errorf("ownerengine: unexpected PSU reply %T", r)
		}
		outs[phi] = rep.Out
		stats.Server.Add(rep.Stats)
	}
	if uint64(len(outs[0])) != rg.Count || uint64(len(outs[1])) != rg.Count {
		return outs, fmt.Errorf("ownerengine: PSU reply length mismatch")
	}
	return outs, nil
}

// CountResult is the outcome of a PSI-count query (§6.5).
type CountResult struct {
	Count int
	Stats QueryStats
}

// Count runs PSI count: the servers PF_s1-permute the PSI vector so the
// owner learns the cardinality but not the positions. With verify, the
// χ̄-side arrives PF_s2-permuted and both align under PF_i (Equation 1),
// enabling the per-cell r1·r2 ≡ 1 check without revealing positions.
// Windows cover the permuted vectors, so counting (and the position-wise
// verification) folds in per window — the owner never materialises a
// whole-domain vector.
func (o *engine) Count(ctx context.Context, table string, verify bool) (*CountResult, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("count").qid
	b := o.view.B
	eta := o.view.Eta
	one := 1 % eta
	var stats QueryStats
	stats.Rounds = 1
	count := 0
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.CountRequest{Table: table, QueryID: qid, Group: o.view.Group, Verify: verify, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		var outs, vouts [2][]uint64
		for phi, r := range replies {
			rep, ok := r.(protocol.CountReply)
			if !ok {
				return fmt.Errorf("ownerengine: unexpected count reply %T", r)
			}
			outs[phi] = rep.Out
			vouts[phi] = rep.Vout
			stats.Server.Add(rep.Stats)
		}
		if uint64(len(outs[0])) != rg.Count || uint64(len(outs[1])) != rg.Count {
			return fmt.Errorf("ownerengine: count reply length mismatch")
		}
		if verify && (vouts[0] == nil || vouts[1] == nil ||
			uint64(len(vouts[0])) != rg.Count || uint64(len(vouts[1])) != rg.Count) {
			return fmt.Errorf("ownerengine: count verification vectors missing")
		}
		start := time.Now()
		for i := range outs[0] {
			v := modmath.MulMod(outs[0][i], outs[1][i], eta)
			if v == one {
				count++
			}
			if verify {
				r2 := modmath.MulMod(vouts[0][i], vouts[1][i], eta)
				if modmath.MulMod(v, r2, eta) != one {
					return fmt.Errorf("%w: count position %d fails r1·r2 ≡ 1", ErrVerificationFailed, rg.Offset+uint64(i))
				}
			}
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if verify {
		stats.Rounds++
	}
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &CountResult{Count: count, Stats: stats}, nil
}

// PSUCount runs PSU count: PF_s1-permuted masked sums; the owner counts
// nonzero entries, folding each permuted window in as it arrives.
func (o *engine) PSUCount(ctx context.Context, table string) (*CountResult, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psucount").qid
	b := o.view.B
	delta := o.view.Delta
	var stats QueryStats
	stats.Rounds = 1
	count := 0
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.PSURequest{Table: table, QueryID: qid, Group: o.view.Group, Permute: true, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		outs, err := psuPair(replies, rg, &stats)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := range outs[0] {
			if (uint64(outs[0][i])+uint64(outs[1][i]))%delta != 0 {
				count++
			}
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &CountResult{Count: count, Stats: stats}, nil
}
