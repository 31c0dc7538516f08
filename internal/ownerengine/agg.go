package ownerengine

import (
	"context"
	"fmt"
	"time"

	"prism/internal/field"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/telemetry"
	"prism/internal/transport"
)

// Aggregate runs round 2 of the §6.1 pipeline (§6.2 over PSU): given the
// selected cells (the PSI intersection or PSU union from round 1), the
// owner builds the 0/1 selector z, Shamir-shares it to the three servers,
// and Lagrange-interpolates the returned degree-2 share vectors into the
// answer's Sums[col][cell] (and, with withCount, Counts[cell]) at every
// selected cell.
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
func (o *engine) Aggregate(ctx context.Context, table string, selected []uint64, cols []string, withCount, verify bool) (*Result, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	b := o.view.B
	for _, c := range selected {
		if c >= b {
			return nil, fmt.Errorf("ownerengine: selected cell %d out of range", c)
		}
	}
	sess := o.newSession("agg")
	qid := sess.qid

	start := time.Now()
	windows := o.plan(protocol.Range{Count: b})
	request := func(rg protocol.Range) protocol.AggRequest {
		req := protocol.AggRequest{Table: table, QueryID: qid, TraceID: tid, Group: o.view.Group, Shard: rg,
			Cols: cols, WithCount: withCount, Z: protocol.Reserve[uint64]()}
		if verify {
			req.VZ = protocol.Reserve[uint64]()
		}
		return req
	}
	reqs, err := o.laySelectors(sess.rng, windows, request, selected, verify)
	// A request forEachShard never handed to the transport goes back here.
	defer func() {
		for _, w := range reqs {
			for _, l := range w {
				if l != nil {
					l.Release()
				}
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	ownerNS := time.Since(start).Nanoseconds()

	// One (main, verification) column pair per requested column, the
	// count column's last, each reconstructed into stored-order
	// accumulators window by window as shard replies land. what and cell
	// label the pair in errors.
	type colPair struct {
		what, cell string
		main, ver  []uint64
		shares     func(protocol.AggReply) (main, ver []uint64)
	}
	pairs := make([]colPair, 0, len(cols)+1)
	for _, col := range cols {
		what := fmt.Sprintf("column %q", col)
		pairs = append(pairs, colPair{what: what, cell: what,
			shares: func(r protocol.AggReply) ([]uint64, []uint64) { return r.Sums[col], r.VSums[col] }})
	}
	if withCount {
		pairs = append(pairs, colPair{what: "count column", cell: "count",
			shares: func(r protocol.AggReply) ([]uint64, []uint64) { return r.Counts, r.VCounts }})
	}
	for i := range pairs {
		pairs[i].main = make([]uint64, b)
		if verify {
			pairs[i].ver = make([]uint64, b)
		}
	}

	window := make(map[uint64]int, len(windows)) // by offset
	for w, rg := range windows {
		window[rg.Offset] = w
	}
	var stats QueryStats
	stats.Rounds = 1
	err = o.forEachShard(ctx, windows, 3, func(phi int, rg protocol.Range) any {
		w := window[rg.Offset]
		l := reqs[w][phi]
		reqs[w][phi] = nil // the transport's now
		return l
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
		for _, p := range pairs {
			var main, ver [3][]uint64
			for phi, rep := range reps {
				main[phi], ver[phi] = p.shares(rep)
			}
			if err := o.interpolateWindow(p.main, rg, main); err != nil {
				return fmt.Errorf("%w: %s: %v", replyFault(verify), p.what, err)
			}
			if verify {
				if err := o.interpolateWindow(p.ver, rg, ver); err != nil {
					return fmt.Errorf("%w: v-%s: %v", ErrVerificationFailed, p.what, err)
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
	// owner permutations: cell i is main[DB1[i]] and, on the χ̄ side,
	// ver[DB2[i]]. The §5.2 check covers every cell, selected or not.
	res := &Result{Sums: make(map[string]map[uint64]uint64, len(cols))}
	for i, p := range pairs {
		if verify {
			if err := o.mismatch(p.cell, p.main, p.ver); err != nil {
				return nil, err
			}
		}
		if i == len(cols) {
			res.Counts = o.pick(p.main, selected)
		} else {
			res.Sums[cols[i]] = o.pick(p.main, selected)
		}
	}
	stats.OwnerNS = ownerNS + stats.OwnerNS + time.Since(start).Nanoseconds()
	stats.WallNS = time.Since(wall).Nanoseconds()
	o.finishTrace(&stats, tid, qid, wall)
	res.Stats = stats
	return res, nil
}

// laySelectors lays out every window's three AggRequests (request's
// message for the window) and writes the servers' Shamir shares of the
// selectors straight into them (§6.1 Step 3): z, 1 at each selected
// cell's stored position DB1[c], and with verify vz, 1 at DB2[c]. The
// shares are drawn from rng, the session's stream, in ShamirSplitVector's
// order, every cell of z and then every cell of vz, but neither the
// selectors nor their shares are ever vectors: a selector is a bitmap
// over stored positions. On an error the requests laid so far are
// returned with it, for the caller to release.
func (o *engine) laySelectors(rng *prg.PRG, windows []protocol.Range, request func(protocol.Range) protocol.AggRequest, selected []uint64, verify bool) ([][3]*protocol.Laid, error) {
	reqs := make([][3]*protocol.Laid, len(windows))
	for w, rg := range windows {
		for phi := range reqs[w] {
			l, err := transport.Lay(request(rg), int(rg.Count), 8)
			if err != nil {
				return reqs, err
			}
			reqs[w][phi] = l
		}
	}
	sides := []perm.Perm{o.view.DB1}
	if verify {
		sides = append(sides, o.view.DB2)
	}
	bits := make([]uint64, (o.view.B+63)/64)
	for k, at := range sides {
		clear(bits)
		for _, c := range selected {
			p := at[c]
			bits[p/64] |= 1 << (p % 64)
		}
		for w, rg := range windows {
			share.ShamirSplitBits(rng, bits, rg.Offset, int(rg.Count), func(phi, i int, shares []field.Elem) {
				protocol.Cells[uint64](reqs[w][phi], k).Put(i, shares)
			})
		}
	}
	for w, rg := range windows {
		for _, l := range reqs[w] {
			if err := l.Finish(request(rg)); err != nil {
				return reqs, err
			}
		}
	}
	return reqs, nil
}

// mismatch checks the §5.2 copies of column pair name cell by cell —
// main[DB1[i]] against ver[DB2[i]] — and names the first cell in
// natural order where they differ. The pass runs in stored order, one
// random read per cell: stored cell p's verification copy sits at
// comp[p]. Only a failure rescans, in natural order (failure), to name
// its cell.
func (o *engine) mismatch(name string, main, ver []uint64) error {
	comp := o.comp[:len(main)]
	for p, v := range main {
		if v != ver[comp[p]] {
			return o.failure(name, "differs between main and verification copies", func(p1, p2 uint32) bool {
				return main[p1] != ver[p2]
			})
		}
	}
	return nil
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
func (o *engine) interpolateWindow(dst []uint64, rg protocol.Range, shares [3][]uint64) error {
	s0, s1, s2 := shares[0], shares[1], shares[2]
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
