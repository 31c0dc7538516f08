package ownerengine

import (
	"context"
	"fmt"
	"time"

	"prism/internal/modmath"
	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// PSI runs the §5.1 protocol and returns the common cells. The stored-
// order vector is fetched window by window and the per-cell
// recombination (Equation 4) folds each window in as its pair of replies
// arrives, so no reply frame is larger than a window. With verify the
// same replies carry the §5.2 χ̄-side vector; it folds in alongside, and
// once both are whole r1_i·r2_i ≡ 1 (mod η) must hold at every cell
// (Equation 10) — ErrVerificationFailed otherwise.
func (o *engine) PSI(ctx context.Context, table string, verify bool) (*Result, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psi").qid
	b := o.view.B
	red := o.modEta
	one := uint32(1 % o.view.Eta)
	var stats QueryStats
	stats.Rounds = 1
	r1Stored := make([]uint32, b)
	var r2Stored []uint32
	if verify {
		r2Stored = make([]uint32, b)
	}
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.PSIRequest{Table: table, QueryID: qid, Group: o.view.Group, Verify: verify, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		outs, vouts, err := sidePair[protocol.PSIReply](replies, rg, verify, &stats)
		if err != nil {
			return err
		}
		start := time.Now()
		// fop_i ← out¹_i · out²_i mod η (Equation 4), stored order.
		mulInto(r1Stored[rg.Offset:rg.End()], outs, red)
		if verify {
			mulInto(r2Stored[rg.Offset:rg.End()], vouts, red)
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	// Undo PF_db1 and PF_db2: cell i is stored at DB1[i] of the χ vector
	// and at DB2[i] of the χ̄ vector.
	var cells []uint64
	for i := range b {
		r1 := r1Stored[o.view.DB1[i]]
		if verify && red.Reduce(uint64(r1)*uint64(r2Stored[o.view.DB2[i]])) != one {
			return nil, fmt.Errorf("%w: PSI cell %d fails r1·r2 ≡ 1", ErrVerificationFailed, i)
		}
		if r1 == one {
			cells = append(cells, i)
		}
	}
	stats.OwnerNS += time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &Result{Cells: cells, Stats: stats}, nil
}

// mulInto sets dst[i] = out¹_i · out²_i mod η for one window of a pair of
// replies. Cells are below 2^32, so the product fits 64 bits and one
// precomputed reduction replaces a division.
func mulInto(dst []uint32, outs [2][]uint32, red modmath.Mod64) {
	a, c := outs[0][:len(dst)], outs[1][:len(dst)]
	for i := range dst {
		dst[i] = red.Reduce(uint64(a[i]) * uint64(c[i]))
	}
}

// sidePair type-checks one window's pair of PSI or count replies (they
// are one shape) and length-checks their vectors. To a verified query a
// short vector, result or proof, is a server fault, not a shape error: an
// owner that asked for proof of every cell and got less fails closed.
func sidePair[R protocol.PSIReply | protocol.CountReply](replies []any, rg protocol.Range, verify bool, stats *QueryStats) (outs, vouts [2][]uint32, err error) {
	for phi, r := range replies {
		rr, ok := r.(R)
		if !ok {
			return outs, vouts, fmt.Errorf("ownerengine: unexpected reply %T, want %T", r, rr)
		}
		rep := protocol.CountReply(rr)
		outs[phi] = rep.Out
		stats.Server.Add(rep.Stats)
		if verify {
			vouts[phi] = rep.Vout
		}
	}
	if uint64(len(outs[0])) != rg.Count || uint64(len(outs[1])) != rg.Count {
		return outs, vouts, fmt.Errorf("%w: reply length mismatch (%d, %d cells for a window of %d)", replyFault(verify), len(outs[0]), len(outs[1]), rg.Count)
	}
	if verify && (uint64(len(vouts[0])) != rg.Count || uint64(len(vouts[1])) != rg.Count) {
		return outs, vouts, fmt.Errorf("%w: verification vectors have %d and %d cells for a window of %d", ErrVerificationFailed, len(vouts[0]), len(vouts[1]), rg.Count)
	}
	return outs, vouts, nil
}

// PSU runs the §7 protocol and returns the union cells.
func (o *engine) PSU(ctx context.Context, table string) (*Result, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psu").qid
	b := o.view.B
	var stats QueryStats
	stats.Rounds = 1
	fopStored := make([]uint16, b)
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.PSURequest{Table: table, QueryID: qid, Group: o.view.Group, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		outs, err := psuPair(replies, rg, &stats)
		if err != nil {
			return err
		}
		start := time.Now()
		dst := fopStored[rg.Offset:rg.End()]
		for i := range dst {
			dst[i] = uint16(o.modDelta.Reduce(uint32(outs[0][i]) + uint32(outs[1][i]))) // Equation 19
		}
		stats.OwnerNS += time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var cells []uint64
	for i, at := range o.view.DB1 { // undo PF_db1
		if fopStored[at] != 0 {
			cells = append(cells, uint64(i))
		}
	}
	stats.OwnerNS += time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &Result{Cells: cells, Stats: stats}, nil
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

// Count runs PSI count (§6.5): the servers PF_s1-permute the PSI vector so the
// owner learns the cardinality but not the positions. With verify, the
// χ̄-side arrives PF_s2-permuted and both align under PF_i (Equation 1),
// enabling the per-cell r1·r2 ≡ 1 check without revealing positions.
// Windows cover the permuted vectors, so counting (and the position-wise
// verification) folds in per window — the owner never materialises a
// whole-domain vector.
func (o *engine) Count(ctx context.Context, table string, verify bool) (*Result, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("count").qid
	b := o.view.B
	red := o.modEta
	one := uint32(1 % o.view.Eta)
	var stats QueryStats
	stats.Rounds = 1
	count := 0
	err := o.forEachShard(ctx, o.plan(b), 2, func(phi int, rg protocol.Range) any {
		return protocol.CountRequest{Table: table, QueryID: qid, Group: o.view.Group, Verify: verify, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		outs, vouts, err := sidePair[protocol.CountReply](replies, rg, verify, &stats)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := range outs[0] {
			v := red.Reduce(uint64(outs[0][i]) * uint64(outs[1][i]))
			if v == one {
				count++
			}
			if verify {
				r2 := red.Reduce(uint64(vouts[0][i]) * uint64(vouts[1][i]))
				if red.Reduce(uint64(v)*uint64(r2)) != one {
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
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	return &Result{Count: count, Stats: stats}, nil
}

// PSUCount runs PSU count: PF_s1-permuted masked sums; the owner counts
// nonzero entries, folding each permuted window in as it arrives.
func (o *engine) PSUCount(ctx context.Context, table string) (*Result, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession("psucount").qid
	b := o.view.B
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
			if o.modDelta.Reduce(uint32(outs[0][i])+uint32(outs[1][i])) != 0 {
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
	return &Result{Count: count, Stats: stats}, nil
}
