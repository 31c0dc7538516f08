package ownerengine

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"prism/internal/protocol"
	"prism/internal/slicepool"
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
// b-cell vector. A set kind marks its hits in a b-bit bitmap in stored
// order — PSU as each window lands, PSI from fop once every window has,
// its verified form requiring r1·r2 ≡ 1 (mod η) at every cell
// (Equation 10) — and undoes PF_db1 once, in cellsOf.
func (o *engine) SetResult(ctx context.Context, q setQuery) (*Result, error) {
	b := o.view.B
	one := uint32(1 % o.view.Eta)
	windows := o.plan(protocol.Range{Count: b})
	var (
		stats QueryStats
		err   error
		hits  []uint64 // bit p: stored cell p is in the result
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
		hits = make([]uint64, (b+63)/64)
		stats, err = o.setRound(ctx, q, windows, [2][]uint32{}, func(rg protocol.Range, fop, _ []uint32) error {
			markBits(hits, rg.Offset, fop, 0, 0)
			return nil
		})
	default:
		// Every window writes its cells of r1 and r2, and nothing reads
		// them past this call: they are pooled, not zeroed.
		r1 = cellBufs.Get(int(b))
		defer cellBufs.Put(r1)
		if q.verify {
			r2 = cellBufs.Get(int(b))
			defer cellBufs.Put(r2)
		}
		stats, err = o.setRound(ctx, q, windows, [2][]uint32{r1, r2}, nil)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if hits == nil {
		if hits, err = o.psiHits(r1, r2); err != nil {
			return nil, err
		}
	}
	cells := o.cellsOf(hits)
	stats.OwnerNS += time.Since(start).Nanoseconds()
	return &Result{Cells: cells, Stats: stats}, nil
}

// cellBufs recycles PSI's stored-order fop and vop vectors.
var cellBufs slicepool.Pool[uint32]

// markBits sets bit at+i of hits for every vals[i] that differs from
// target, flipped when flip is 1: target 0, flip 0 marks PSU's nonzero
// cells; target 1, flip 1 marks PSI's cells equal to 1. It builds each
// 64-bit word in a register with no branch on the values and ORs it in,
// so cells of neighbouring windows that share a word both land.
func markBits(hits []uint64, at uint64, vals []uint32, target uint32, flip uint64) {
	for len(vals) > 0 {
		sh := at & 63
		n := min(64-sh, uint64(len(vals)))
		var word uint64
		for j, v := range vals[:n] {
			x := uint64(v ^ target)
			word |= ((x|-x)>>63 ^ flip) << j
		}
		hits[at>>6] |= word << sh
		vals, at = vals[n:], at+n
	}
}

// psiHits marks PSI's result cells (fop = 1) in a bitmap over stored
// positions. With r2 it also checks r1·r2 ≡ 1 at every cell (Equation
// 10) in stored order: stored χ cell p holds the cell whose χ̄ side sits
// at comp[p], so each check is one random read. A failure is named by
// the first failing cell in natural order, which failure rescans for.
func (o *engine) psiHits(r1, r2 []uint32) ([]uint64, error) {
	red, one := o.modEta, uint32(1%o.view.Eta)
	hits := make([]uint64, (len(r1)+63)/64)
	for lo := 0; lo < len(r1); lo += foldBlock { // a block of r1 stays in cache for the check
		seg := r1[lo:min(lo+foldBlock, len(r1))]
		markBits(hits, uint64(lo), seg, one, 1)
		if r2 == nil {
			continue
		}
		comp := o.comp[lo:][:len(seg)]
		for p, v := range seg {
			if red.Reduce(uint64(v)*uint64(r2[comp[p]])) != one {
				return nil, o.failure("PSI", "fails r1·r2 ≡ 1", func(p1, p2 uint32) bool {
					return red.Reduce(uint64(r1[p1])*uint64(r2[p2])) != one
				})
			}
		}
	}
	return hits, nil
}

// failure names the first natural cell i that fails a §5.2 check, once
// a stored-order pass (psiHits, mismatch) has seen one: bad reports a
// failure at main position DB1[i] and verification position DB2[i].
// subject and fails word the error, "PSI cell 7 fails r1·r2 ≡ 1".
func (o *engine) failure(subject, fails string, bad func(p1, p2 uint32) bool) error {
	db2 := o.view.DB2
	for i, at := range o.view.DB1 {
		if bad(at, db2[i]) {
			return fmt.Errorf("%w: %s cell %d %s", ErrVerificationFailed, subject, i, fails)
		}
	}
	return fmt.Errorf("%w: a %s cell %s", ErrVerificationFailed, subject, fails) // DB1 or DB2 changed under comp
}

// cellsOf undoes PF_db1 over a stored-order hit bitmap: cell i is
// stored at DB1[i], so one pass over DB1 that reads only the bitmap
// yields the result cells ascending, into a slice sized by the bitmap's
// popcount. Nil when no bit is set.
func (o *engine) cellsOf(hits []uint64) []uint64 {
	n := 0
	for _, w := range hits {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	cells, k := make([]uint64, n+1), 0 // one spare slot: the write below never branches
	for i, at := range o.view.DB1 {
		cells[k] = uint64(i)
		k += int(hits[at>>6] >> (at & 63) & 1)
	}
	return cells[:n:n]
}
