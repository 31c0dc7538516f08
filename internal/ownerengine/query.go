package ownerengine

import (
	"context"
	"fmt"
	"time"

	"prism/internal/protocol"
	"prism/internal/telemetry"
)

// foldBlock is the most cells setRound combines before handing them to
// the fold: 16 KiB of fop stays in cache between the combine's writes
// and the fold's reads, which a window-sized buffer (up to the whole
// table) does not.
const foldBlock = 1 << 12

// setQuery names round 1 of a set kind: which request goes to S0 and S1,
// over which table.
type setQuery struct {
	name  string // the query id's prefix
	table string
	// union asks for PSU's masked sums (§7); otherwise PSI's vector (§5.1).
	union bool
	// permute asks for windows of the PF_s1-permuted vector (the
	// cardinalities, §6.5), so the owner learns a count, not positions.
	permute bool
	// verify carries PSI's §5.2 χ̄ side in the same replies; the paper
	// gives PSU no proof, so a union round never asks for it.
	verify bool
}

// setRound is round 1 of every set kind (§5.1 Equation 4, §6.5, §7
// Equation 19): one request per window to S0 and S1 — a PSIRequest, a
// CountRequest, or a PSURequest{Permute} — whose reply pair combines
// cell by cell into fop: out¹·out² mod η, or out¹+out² mod δ for the
// union. With verify the pair's χ̄ sides combine into vop the same way
// as PSI's. A window lands as it arrives: at its offset in keep's b-cell
// vectors (fop, vop) when the caller keeps the whole table in stored
// order, otherwise block by block — at most foldBlock cells — in one
// buffer per side that the next block reuses. Either way fold, when
// set, sees it as it lands (rg names the block); folds are serialised.
// A reply of the wrong type or length fails the round — with
// ErrVerificationFailed when a verified query's proof comes back short.
func (o *engine) setRound(ctx context.Context, q setQuery, windows []protocol.Range, keep [2][]uint32, fold func(rg protocol.Range, fop, vop []uint32) error) (QueryStats, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	qid := o.newSession(q.name).qid
	fbuf, vbuf := keep[0], keep[1]
	if fbuf == nil {
		var width uint64
		for _, rg := range windows {
			width = max(width, rg.Count)
		}
		fbuf = make([]uint32, min(width, foldBlock))
		if q.verify {
			vbuf = make([]uint32, len(fbuf))
		}
	}
	stats := QueryStats{Rounds: 1}
	err := o.forEachShard(ctx, windows, 2, func(phi int, rg protocol.Range) any {
		switch {
		case q.union:
			return protocol.PSURequest{Table: q.table, QueryID: qid, Group: o.view.Group, Permute: q.permute, TraceID: tid, Shard: rg}
		case q.permute:
			return protocol.CountRequest{Table: q.table, QueryID: qid, Group: o.view.Group, Verify: q.verify, TraceID: tid, Shard: rg}
		}
		return protocol.PSIRequest{Table: q.table, QueryID: qid, Group: o.view.Group, Verify: q.verify, TraceID: tid, Shard: rg}
	}, func(rg protocol.Range, replies []any) error {
		var sides [2]replySide
		for phi, r := range replies {
			s, ok := q.side(r)
			if !ok {
				return fmt.Errorf("ownerengine: unexpected reply %T to a %s round", r, q.name)
			}
			stats.Server.Add(s.stats)
			sides[phi] = s
		}
		// To a verified query a short vector, result or proof, is a server
		// fault, not a shape error: an owner that asked for proof of every
		// cell and got less fails closed.
		n := int(rg.Count)
		if sides[0].cells() != n || sides[1].cells() != n {
			return fmt.Errorf("%w: reply length mismatch (%d, %d cells for a window of %d)", replyFault(q.verify), sides[0].cells(), sides[1].cells(), n)
		}
		if q.verify && (len(sides[0].vout) != n || len(sides[1].vout) != n) {
			return fmt.Errorf("%w: verification vectors have %d and %d cells for a window of %d", ErrVerificationFailed, len(sides[0].vout), len(sides[1].vout), n)
		}
		start := time.Now()
		defer func() { stats.OwnerNS += time.Since(start).Nanoseconds() }()
		at, block := 0, len(fbuf) // where in fbuf and vbuf the cells land
		if keep[0] != nil {
			at, block = int(rg.Offset), n
		}
		for lo := 0; lo < n; lo += block {
			hi := min(lo+block, n)
			fop, vop := fbuf[at:][:hi-lo], []uint32(nil)
			if q.union {
				a, c, md := sides[0].out16[lo:hi], sides[1].out16[lo:hi], o.modDelta
				for i := range fop {
					fop[i] = md.Reduce(uint32(a[i]) + uint32(c[i]))
				}
			} else {
				o.mulInto(fop, sides[0].out[lo:hi], sides[1].out[lo:hi])
			}
			if q.verify {
				vop = vbuf[at:][:hi-lo]
				o.mulInto(vop, sides[0].vout[lo:hi], sides[1].vout[lo:hi])
			}
			if fold == nil {
				continue
			}
			if err := fold(protocol.Range{Offset: rg.Offset + uint64(lo), Count: uint64(hi - lo)}, fop, vop); err != nil {
				return err
			}
		}
		return nil
	})
	o.finishTrace(&stats, tid, qid, wall)
	return stats, err
}

// replySide is one server's round-1 reply: PSU's masked sums, or PSI's
// (and count's, the same shape) vector and proof.
type replySide struct {
	out16     []uint16
	out, vout []uint32
	stats     protocol.Stats
}

func (s replySide) cells() int { return max(len(s.out16), len(s.out)) }

// side reads r as a reply to q's request, or reports that it is not one.
func (q setQuery) side(r any) (replySide, bool) {
	switch rep := r.(type) {
	case protocol.PSUReply:
		return replySide{out16: rep.Out, stats: rep.Stats}, q.union
	case protocol.CountReply:
		return replySide{out: rep.Out, vout: rep.Vout, stats: rep.Stats}, !q.union && q.permute
	case protocol.PSIReply:
		return replySide{out: rep.Out, vout: rep.Vout, stats: rep.Stats}, !q.union && !q.permute
	}
	return replySide{}, false
}

// mulInto sets dst[i] = a_i · c_i mod η (Equation 4). Cells are below
// 2^32, so the product fits 64 bits and one precomputed reduction
// replaces a division.
func (o *engine) mulInto(dst, a, c []uint32) {
	a, c, red := a[:len(dst)], c[:len(dst)], o.modEta
	for i := range dst {
		dst[i] = red.Reduce(uint64(a[i]) * uint64(c[i]))
	}
}

// SetResult answers a set or cardinality kind from its round 1 over the
// whole table. A cell is in the result set when its fop is 1 for PSI
// (Equation 4), nonzero for PSU (Equation 19). A cardinality counts
// each window as it lands — position by position, since under PF_i the
// permuted χ and χ̄ vectors align (Equation 1) — and never holds a
// b-cell vector. A set kind undoes PF_db1 once every window has landed:
// PSU from one membership byte per stored cell, PSI from fop itself,
// whose verified form also undoes PF_db2 for the χ̄ side and requires
// r1_i·r2_i ≡ 1 (mod η) at every cell (Equation 10).
func (o *engine) SetResult(ctx context.Context, q setQuery) (*Result, error) {
	b := o.view.B
	one := uint32(1 % o.view.Eta)
	windows := o.plan(protocol.Range{Count: b})
	var (
		stats QueryStats
		err   error
		in    []bool   // PSU: stored cell p is in the union
		r1    []uint32 // PSI: fop, and with verify r2 = vop, in stored order
		r2    []uint32
	)
	switch {
	case q.permute:
		hit, union, red := one, q.union, o.modEta
		if union {
			hit = 0
		}
		count := 0
		stats, err = o.setRound(ctx, q, windows, [2][]uint32{}, func(rg protocol.Range, fop, vop []uint32) error {
			n := 0
			for _, v := range fop {
				if (v == hit) != union { // 1 for PSI, nonzero for PSU
					n++
				}
			}
			count += n
			for i, v := range vop {
				if red.Reduce(uint64(fop[i])*uint64(v)) != one {
					return fmt.Errorf("%w: count position %d fails r1·r2 ≡ 1", ErrVerificationFailed, rg.Offset+uint64(i))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Result{Count: count, Stats: stats}, nil
	case q.union:
		in = make([]bool, b)
		stats, err = o.setRound(ctx, q, windows, [2][]uint32{}, func(rg protocol.Range, fop, _ []uint32) error {
			for i, v := range fop {
				in[rg.Offset+uint64(i)] = v != 0
			}
			return nil
		})
	default:
		r1 = make([]uint32, b)
		if q.verify {
			r2 = make([]uint32, b)
		}
		stats, err = o.setRound(ctx, q, windows, [2][]uint32{r1, r2}, nil)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cells, err := o.undoDB(in, r1, r2)
	if err != nil {
		return nil, err
	}
	stats.OwnerNS += time.Since(start).Nanoseconds()
	return &Result{Cells: cells, Stats: stats}, nil
}

// undoDB undoes PF_db1 and returns the result cells: cell i is stored at
// DB1[i] of the membership vector in or, for PSI, of the χ vector r1,
// and when r2 is set at DB2[i] of the χ̄ vector r2. It is a function of
// its own so the loop runs on plain locals.
func (o *engine) undoDB(in []bool, r1, r2 []uint32) ([]uint64, error) {
	red, one, db2 := o.modEta, uint32(1%o.view.Eta), o.view.DB2
	var cells []uint64
	for i, at := range o.view.DB1 {
		if in != nil {
			if in[at] {
				cells = append(cells, uint64(i))
			}
			continue
		}
		v := r1[at]
		if r2 != nil && red.Reduce(uint64(v)*uint64(r2[db2[i]])) != one {
			return nil, fmt.Errorf("%w: PSI cell %d fails r1·r2 ≡ 1", ErrVerificationFailed, i)
		}
		if v == one {
			cells = append(cells, uint64(i))
		}
	}
	return cells, nil
}
