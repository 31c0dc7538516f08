package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"time"

	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/telemetry"
)

// The §6.3/§6.4 rounds are vector rounds: every method below handles all
// k result cells of a query at once, so one query costs a constant
// number of exchanges per server group however many cells intersect.
// Vectors are parallel to the cells slice the caller passes.

// localValues computes this owner's private per-cell statistic for an
// exemplary aggregation (§6.3 Step 3) at every listed cell of group g —
// cells in the group's own numbering — in one pass over its tuples: the
// owner's own maximum (for max), minimum (for min), or total (for median
// — the paper's median example first sums per owner) of column col
// restricted to tuples at the cell. has[c] is false when the owner has
// no tuple at cells[c]. The listed cells are marked in a b-bit bitmap,
// so a tuple at an unlisted cell costs one bit test, and which group a
// tuple falls in takes no branch: an owner's tuples spread over every
// group, so with two groups that branch would miss about every other
// tuple.
func (o *Owner) localValues(g int, kind protocol.ExtremeKind, col string, cells []uint64) (vals []uint64, has []bool, err error) {
	start, b := o.starts[g], o.groups[g].view.B
	d := o.Data()
	if d == nil {
		return nil, nil, errors.New("ownerengine: no data loaded")
	}
	vs, okCol := d.Aggs[col]
	if !okCol {
		return nil, nil, fmt.Errorf("ownerengine: data has no column %q", col)
	}
	listed := make([]uint64, b/64+1) // bit b stands for every cell outside the group and is never set
	at := make(map[uint64]int, len(cells))
	for c, cell := range cells {
		if cell < b { // a cell past the group has no tuple
			listed[cell>>6] |= 1 << (cell & 63)
			at[cell] = c
		}
	}
	vals, has = make([]uint64, len(cells)), make([]bool, len(cells))
	for i, cell := range d.Cells {
		cell -= start
		_, in := bits.Sub64(cell, b, 0) // 1 in the group, 0 outside: no branch on it
		cell = b ^ (cell^b)&-in         // outside the group: bit b
		if listed[cell>>6]>>(cell&63)&1 == 0 {
			continue
		}
		c := at[cell]
		v := vs[i]
		switch {
		case !has[c]:
			vals[c] = v
		case kind == protocol.KindMedian:
			vals[c] += v
		case kind == protocol.KindMax && v > vals[c], kind == protocol.KindMin && v < vals[c]:
			vals[c] = v
		}
		has[c] = true
	}
	return vals, has, nil
}

// SubmitExtreme masks this owner's local values with the order-preserving
// polynomial (v = F(M) + r, r < F(M+1)−F(M)) and sends one vector of
// additive big shares to each additive-share server (§6.3 Step 3).
func (o *engine) SubmitExtreme(ctx context.Context, qid string, kind protocol.ExtremeKind, locals []uint64) error {
	shares := [2][][]byte{make([][]byte, len(locals)), make([][]byte, len(locals))}
	for c, local := range locals {
		if local > o.view.MaxAgg {
			return fmt.Errorf("ownerengine: value %d exceeds declared aggregation bound %d", local, o.view.MaxAgg)
		}
		o.mu.Lock()
		v := o.view.Poly.Mask(o.rng, local)
		o.mu.Unlock()
		sh, err := share.BigSplit(v, o.view.Q, 2)
		if err != nil {
			return err
		}
		shares[0][c], shares[1][c] = sh[0].Bytes(), sh[1].Bytes()
	}
	tid := telemetry.TraceID(ctx)
	_, release, err := o.callServers(ctx, 2, func(phi int) any {
		return protocol.ExtremeSubmitRequest{
			QueryID: qid,
			Kind:    kind,
			Owner:   o.Index,
			Group:   o.view.Group,
			VShares: shares[phi],
			TraceID: tid,
		}
	})
	release()
	return err
}

// ExtremeOutcome is the reconstructed result of a max/min/median round.
type ExtremeOutcome struct {
	// Values[c] holds cell c's recovered attribute value(s): one for
	// max/min, one or two for median (two when the owner count is even).
	Values [][]uint64
	// WinnerSlots[c] is the owner index holding cell c's extreme value,
	// recovered through the reverse slot permutation RPF (max/min only;
	// nil for median).
	WinnerSlots []int
	Stats       QueryStats
}

// FetchExtreme retrieves the announcer's result shares for a k-cell
// round from both servers, reconstructs the masked values mod Q, and
// finds each z with F(z) ≤ v < F(z+1) (§6.3 Step 5a, opoly.SearchZ). A reply
// that does not carry exactly the k cells submitted is a server fault.
func (o *engine) FetchExtreme(ctx context.Context, qid string, kind protocol.ExtremeKind, k int) (*ExtremeOutcome, error) {
	wall := time.Now()
	tid := telemetry.TraceID(ctx)
	replies, release, err := o.callServers(ctx, 2, func(int) any {
		return protocol.ExtremeFetchRequest{QueryID: qid, TraceID: tid}
	})
	defer release()
	if err != nil {
		return nil, err
	}
	per, indexes := 1, k // value shares per cell, index shares per reply
	if kind == protocol.KindMedian {
		per, indexes = 2-o.view.M%2, 0
	}
	var reps [2]protocol.ExtremeFetchReply
	out := &ExtremeOutcome{}
	for phi, r := range replies {
		rep, ok := r.(protocol.ExtremeFetchReply)
		if !ok {
			return nil, fmt.Errorf("ownerengine: unexpected extreme reply %T", r)
		}
		if !rep.Ready {
			return nil, fmt.Errorf("ownerengine: extreme query %q not ready", qid)
		}
		if len(rep.ValueShares) != k*per || len(rep.IndexShares) != indexes {
			return nil, fmt.Errorf("%w: server %d answered %q with %d value and %d index shares, want %d and %d",
				ErrVerificationFailed, phi, qid, len(rep.ValueShares), len(rep.IndexShares), k*per, indexes)
		}
		reps[phi] = rep
		out.Stats.Server.Spans = append(out.Stats.Server.Spans, rep.Spans...)
	}

	start := time.Now()
	out.Values = make([][]uint64, k)
	for j := range reps[0].ValueShares {
		v := share.BigReconstruct([]*big.Int{
			new(big.Int).SetBytes(reps[0].ValueShares[j]),
			new(big.Int).SetBytes(reps[1].ValueShares[j]),
		}, o.view.Q)
		z, err := o.view.Poly.SearchZ(v, o.view.MaxAgg)
		if err != nil {
			// Structural max-verification: a tampered value falls outside
			// the image interval of F over the declared domain.
			return nil, fmt.Errorf("%w: masked value not in F's image: %v", ErrVerificationFailed, err)
		}
		out.Values[j/per] = append(out.Values[j/per], z)
	}
	if indexes > 0 {
		out.WinnerSlots = make([]int, k)
		inv := o.view.PF.Inverse()
		for c := range out.WinnerSlots {
			idx := (uint64(reps[0].IndexShares[c]) + uint64(reps[1].IndexShares[c])) % o.view.Delta
			if idx >= uint64(o.view.M) {
				return nil, fmt.Errorf("%w: winner slot %d out of range", ErrVerificationFailed, idx)
			}
			// pos ← RPF(index): the servers permuted owner slots with PF, so
			// the original slot is PF⁻¹(idx) (§6.3 Step 5a, Equation 16).
			out.WinnerSlots[c] = inv.Image(int(idx))
		}
	}
	out.Stats.OwnerNS = time.Since(start).Nanoseconds()
	out.Stats.WallNS = time.Since(wall).Nanoseconds()
	out.Stats.Rounds = 1
	o.finishTrace(&out.Stats, tid, qid, wall)
	return out, nil
}

// checkExtremeConsistency is each owner's local verification of an
// announced extreme (our instantiation of the full-version max
// verification): the announced max cannot be below this owner's own
// value (resp. above, for min). Returns ErrVerificationFailed on
// inconsistency.
func checkExtremeConsistency(kind protocol.ExtremeKind, announced, localValue uint64) error {
	switch kind {
	case protocol.KindMax:
		if localValue > announced {
			return fmt.Errorf("%w: announced max %d below own value %d", ErrVerificationFailed, announced, localValue)
		}
	case protocol.KindMin:
		if localValue < announced {
			return fmt.Errorf("%w: announced min %d above own value %d", ErrVerificationFailed, announced, localValue)
		}
	}
	return nil
}

// SubmitClaim sends additive shares of α_c = [M_c = z_c], one per cell,
// to both servers (§6.3 Step 5b). Owners that do not hold a cell's
// extreme submit α = 0 so the servers observe identical behaviour from
// every owner.
func (o *engine) SubmitClaim(ctx context.Context, qid string, holdsExtreme []bool) error {
	alpha := make([]uint16, len(holdsExtreme))
	for c, holds := range holdsExtreme {
		if holds {
			alpha[c] = 1
		}
	}
	o.mu.Lock()
	shares := share.AdditiveSplitVector(o.rng, alpha, o.view.Delta, 2)
	o.mu.Unlock()
	_, release, err := o.callServers(ctx, 2, func(phi int) any {
		return protocol.ClaimSubmitRequest{QueryID: qid, Owner: o.Index, Group: o.view.Group, Shares: shares[phi]}
	})
	release()
	return err
}

// FetchClaims retrieves the fpos matrices of a k-cell round from both
// servers and adds them (§6.3 Step 7), yielding per cell the 0/1
// ownership vector over owner slots: claims[c][i] says owner i holds
// cell c's extreme.
func (o *engine) FetchClaims(ctx context.Context, qid string, k int) ([][]bool, error) {
	replies, release, err := o.callServers(ctx, 2, func(int) any {
		return protocol.ClaimFetchRequest{QueryID: qid}
	})
	defer release()
	if err != nil {
		return nil, err
	}
	var fpos [2][]uint16
	for phi, r := range replies {
		rep, ok := r.(protocol.ClaimFetchReply)
		if !ok {
			return nil, fmt.Errorf("ownerengine: unexpected claim reply %T", r)
		}
		if !rep.Ready {
			return nil, fmt.Errorf("ownerengine: claims for %q not ready", qid)
		}
		if len(rep.Fpos) != o.view.M*k {
			return nil, fmt.Errorf("%w: server %d answered %q with %d fpos shares, want %d owners × %d cells",
				ErrVerificationFailed, phi, qid, len(rep.Fpos), o.view.M, k)
		}
		fpos[phi] = rep.Fpos
	}
	out := make([][]bool, k)
	for c := range out {
		out[c] = make([]bool, o.view.M)
		for i := range out[c] {
			v := (uint64(fpos[0][i*k+c]) + uint64(fpos[1][i*k+c])) % o.view.Delta
			if v > 1 {
				return nil, fmt.Errorf("%w: fpos[%d] of cell %d = %d is not a bit", ErrVerificationFailed, i, c, v)
			}
			out[c][i] = v == 1
		}
	}
	return out, nil
}
