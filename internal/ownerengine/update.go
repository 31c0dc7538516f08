// Incremental updates (owner side). Instead of rebuilding and
// re-outsourcing the full O(b) table after a tuple-set change, the
// owner works out the cells the added/removed tuples touch, re-shares
// those cells' new values, and sends each server one StoreDelta request
// — compact (position, absolute share value) lists the servers merge
// over the base. Cost is O(changed cells · log b), independent of b
// except for the permutation lookups — and for a table outsourced with
// Buckets, whose bucket tree is re-uploaded whole (shipUpdate).
//
// The owner validates the change, folds it into a copy of the dataset
// and computes the changed cells' new values once, without touching its
// state; each touched group builds its servers' requests for its run of
// those cells and ships them, and the owner commits the fold and the new
// values once every server of every touched group has acknowledged — so
// a failed update leaves the owner as it was and, the values being
// absolute, shipping it again brings every server to the same state.
package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"prism/internal/field"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/protocol"
)

// UpdateStats reports one incremental update's cost, mirroring
// ShareGenStats for the full outsource path so the two are directly
// comparable in benchmarks.
type UpdateStats struct {
	BuildNS  int64 // validation, fold and changed-cell recomputation
	SplitNS  int64 // secret-share generation for the changed cells
	UploadNS int64 // the one StoreDelta exchange and any bucket-tree re-upload
	Cells    uint64
	// FastPath reports that the append-only fold ran: with no removals
	// the O(n) removal-match scan and the kept-tuple rebuild are skipped
	// and the adds fold in by direct append.
	FastPath bool
}

// update is one prepared update: the folded dataset and the changed
// cells' new values, computed once for the whole domain.
type update struct {
	t     *localTable
	data  *Data       // the loaded dataset with the change folded in
	cells []uint64    // the changed natural cells, ascending
	next  *localTable // their new χ, multiplicity and sums, parallel to cells
	stats UpdateStats
}

// groupUpdate is one touched group's part of an update: its run of the
// changed cells — a slice of the update's — and its servers' requests.
type groupUpdate struct {
	cells    []uint64 // global cells in [Start, Start+B), ascending
	next     *localTable
	reqs     [params.NumServers]protocol.StoreDeltaRequest
	uploadNS int64
}

// Update applies a tuple-set change to an outsourced table: add and
// remove list tuples in the Data format (either may be nil). Removed
// tuples must match currently loaded tuples — same cell, same
// aggregation values — or the update is rejected. Every touched group
// prepares before anything is sent, each server of a touched group
// receives exactly one StoreDeltaRequest (and, for a table outsourced
// with Buckets, S0 and S1 the group's rebuilt bucket tree), and the
// owner's state is folded only once all of them have acknowledged: a
// failed update returns the error and leaves the owner untouched, and
// calling Update again with the same tuples converges the servers.
func (o *Owner) Update(ctx context.Context, table string, add, remove *Data) (UpdateStats, error) {
	t, err := o.localTableFor(table)
	if err != nil {
		return UpdateStats{}, err
	}
	for _, d := range []*Data{add, remove} {
		if d == nil {
			continue
		}
		if err := d.Validate(o.b, o.View().MaxAgg); err != nil {
			return UpdateStats{}, err
		}
		for _, col := range t.spec.AggCols {
			if len(d.Cells) > 0 && d.Aggs[col] == nil {
				return UpdateStats{}, fmt.Errorf("ownerengine: update data has no column %q", col)
			}
		}
	}

	// One update at a time per table: each carries absolute replacement
	// values computed from the retained state, so two interleaved updates
	// racing to the servers could land out of order and leave the older
	// absolute value on top.
	t.upMu.Lock()
	defer t.upMu.Unlock()
	u := &update{t: t}
	if err := o.buildUpdate(u, add, remove); err != nil {
		return UpdateStats{}, err
	}
	if len(u.cells) == 0 {
		return u.stats, nil
	}
	// The changed cells ascend, so each group's are one run of them.
	parts := make([]*groupUpdate, len(o.groups))
	var sel []int // the touched groups
	lo := 0
	for g, e := range o.groups {
		hi := lo
		for hi < len(u.cells) && u.cells[hi] < e.view.Start+e.view.B {
			hi++
		}
		if hi > lo {
			parts[g] = &groupUpdate{cells: u.cells[lo:hi], next: u.next.slice(uint64(lo), uint64(hi))}
			e.prepareUpdate(parts[g], t.spec, &u.stats)
			sel = append(sel, g)
		}
		lo = hi
	}
	if err := o.eachGroup("update", sel, func(g int) error { return o.groups[g].shipUpdate(ctx, t, parts[g]) }); err != nil {
		return UpdateStats{}, err
	}
	for _, g := range sel {
		u.stats.UploadNS += parts[g].uploadNS
	}
	o.commitUpdate(u)
	return u.stats, nil
}

// buildUpdate fills in u for a validated change. Caller holds t.upMu.
func (o *Owner) buildUpdate(u *update, add, remove *Data) error {
	t, spec := u.t, u.t.spec
	start := time.Now()
	o.mu.Lock()
	d := o.data
	inPlace := d != nil && d == o.appendable
	o.appendable = nil // claimed, or the fold below copies
	o.mu.Unlock()
	if d == nil {
		return errors.New("ownerengine: no data loaded")
	}
	// The adds must cover the loaded column set, or the updated
	// dataset's parallel arrays would go ragged; the removals, or they
	// could not be matched.
	for col := range d.Aggs {
		for _, c := range []*Data{add, remove} {
			if c != nil && len(c.Cells) > 0 && c.Aggs[col] == nil {
				return fmt.Errorf("ownerengine: update data has no column %q (loaded dataset has it)", col)
			}
		}
	}
	// Match every removal against a distinct loaded tuple (same cell,
	// same aggregation values across every loaded column). gone holds the
	// matched tuples' indices, ascending once the matching is done.
	var gone []int
	for i := 0; remove != nil && i < len(remove.Cells); i++ {
		c, found := remove.Cells[i], -1
		for j, dc := range d.Cells {
			if dc != c || slices.Contains(gone, j) {
				continue
			}
			match := true
			for col, vs := range d.Aggs {
				if vs[j] != remove.Aggs[col][i] {
					match = false
					break
				}
			}
			if match {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("ownerengine: removal %d (cell %d) matches no loaded tuple", i, c)
		}
		gone = append(gone, found)
	}
	slices.Sort(gone)
	// Fold the dataset copy-on-write: in-flight queries iterating the old
	// Data, and a failed update, keep their snapshot — no tuple they can
	// see is written. Without removals (the append-only fast path) the
	// kept tuples are the old arrays, and the adds go past them: in place
	// if this fold claimed the arrays' spare capacity (inPlace), else
	// into a copy, as append grows them. With removals the runs of kept
	// tuples between them are copied once, into arrays with room for the
	// adds and for later folds.
	u.stats.FastPath = len(gone) == 0
	added := 0
	if add != nil {
		added = len(add.Cells)
	}
	keep := func(vs []uint64) []uint64 {
		if u.stats.FastPath {
			if inPlace {
				return vs
			}
			return vs[:len(vs):len(vs)]
		}
		n := len(vs) - len(gone) + added
		kept, lo := make([]uint64, 0, n+n/4), 0
		for _, j := range gone {
			kept, lo = append(kept, vs[lo:j]...), j+1
		}
		return append(kept, vs[lo:]...)
	}
	u.data = &Data{Cells: keep(d.Cells), Aggs: make(map[string][]uint64, len(d.Aggs))}
	for col, vs := range d.Aggs {
		u.data.Aggs[col] = keep(vs)
	}
	if add != nil {
		u.data.Cells = append(u.data.Cells, add.Cells...)
		for col := range d.Aggs {
			u.data.Aggs[col] = append(u.data.Aggs[col], add.Aggs[col]...)
		}
	}

	// The changed cells' new multiplicities and sums, beside the retained
	// tables, not in them. Removals fold first, so a multiplicity running
	// below zero means the outsourced table never held that many tuples
	// there (the loaded dataset may have been replaced since: a removal
	// that matched it can still be absent from the table).
	sides := []struct {
		d        *Data
		removing bool
	}{{remove, true}, {add, false}}
	at := make(map[uint64]int)
	for _, side := range sides {
		for i := 0; side.d != nil && i < len(side.d.Cells); i++ {
			c := side.d.Cells[i]
			if _, seen := at[c]; !seen {
				at[c] = 0 // its index in u.cells, set once they are sorted
				u.cells = append(u.cells, c)
			}
		}
	}
	slices.Sort(u.cells)
	u.next = &localTable{spec: spec, sums: make(map[string][]uint64, len(spec.AggCols))}
	next := u.next
	for k, c := range u.cells {
		at[c] = k
		next.mult = append(next.mult, t.mult[c])
		for _, col := range spec.AggCols {
			next.sums[col] = append(next.sums[col], t.sums[col][c])
		}
	}
	for _, side := range sides {
		if side.d == nil {
			continue
		}
		for i, c := range side.d.Cells {
			k := at[c]
			if side.removing && next.mult[k] == 0 {
				return fmt.Errorf("ownerengine: removing more tuples from cell %d than the %d the outsourced table holds", c, t.mult[c])
			}
			if side.removing {
				next.mult[k]--
			} else {
				next.mult[k]++
			}
			for _, col := range spec.AggCols {
				v := field.Reduce(side.d.Aggs[col][i])
				if side.removing {
					v = field.Neg(v)
				}
				next.sums[col][k] = field.Add(next.sums[col][k], v)
			}
		}
	}
	n := len(u.cells)
	if n == 0 {
		return nil
	}
	next.chi = make([]uint16, n)
	for k, m := range next.mult {
		if m > 0 {
			next.chi[k] = 1
		}
	}
	u.stats.Cells = uint64(n)
	u.stats.BuildNS = time.Since(start).Nanoseconds()
	return nil
}

// prepareUpdate builds the group's three requests for its run of an
// update's changed cells, adding its time to st.
func (o *engine) prepareUpdate(gu *groupUpdate, spec OutsourceSpec, st *UpdateStats) {
	start := time.Now()
	n := len(gu.cells)
	// Stored positions of the changed cells, ascending — once per
	// permutation space, since DB1 (χ, sums, counts) and DB2 (χ̄,
	// v-columns) scatter the same cell to different positions — and the
	// rank permutation that puts the cells' values in that order.
	ranked := func(db perm.Perm) (perm.Perm, []uint64) {
		at := func(k int) uint32 { return db[gu.cells[k]-o.view.Start] }
		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(i, j int) bool { return at(order[i]) < at(order[j]) })
		rank, pos := make(perm.Perm, n), make([]uint64, n)
		for r, k := range order {
			rank[k], pos[r] = uint32(r), uint64(at(k))
		}
		return rank, pos
	}
	rank1, pos1 := ranked(o.view.DB1)
	var rank2 perm.Perm
	var pos2 []uint64
	if spec.Verify {
		rank2, pos2 = ranked(o.view.DB2)
	}
	st.BuildNS += time.Since(start).Nanoseconds()

	start = time.Now()
	sh := o.split(gu.next, rank1, rank2)
	for phi := range gu.reqs {
		c := sh.server(phi, 0, uint64(n))
		gu.reqs[phi] = protocol.StoreDeltaRequest{
			Owner: o.Index, Group: o.view.Group, Table: spec.Table,
			Pos: pos1, Chi: c.ChiAdd, Sums: c.SumCols, Cnt: c.CountCol,
			VPos: pos2, ChiBar: c.ChiBarAdd, VSums: c.VSumCols, VCnt: c.VCountCol,
		}
	}
	st.SplitNS += time.Since(start).Nanoseconds()
}

// shipUpdate sends each server of the group its one request and returns
// once all three have answered: nil, or the refusals joined. A table
// outsourced with Buckets then gets the group's tree rebuilt over χ with
// the update applied and re-uploaded whole, on every update whether or
// not membership flipped: Plain-level deltas would show S0 and S1 which
// natural cell changed, and a skipped upload whether χ changed at all.
// It costs (8/7)·b two-byte shares to each of S0 and S1; a failed upload
// leaves the update uncommitted and retryable like a refused delta.
func (o *engine) shipUpdate(ctx context.Context, t *localTable, gu *groupUpdate) error {
	start := time.Now()
	replies, release, err := o.callServers(ctx, params.NumServers, func(phi int) any { return gu.reqs[phi] })
	defer release()
	if err != nil {
		return err
	}
	total := 0
	for _, r := range replies {
		rep, ok := r.(protocol.StoreDeltaReply)
		if !ok {
			return fmt.Errorf("ownerengine: unexpected delta reply %T", r)
		}
		total += rep.Entries
	}
	if total == 0 {
		return errors.New("ownerengine: no server accepted any delta entry")
	}
	if t.spec.Buckets {
		chi := slices.Clone(t.chi[o.view.Start : o.view.Start+o.view.B])
		for k, c := range gu.cells {
			chi[c-o.view.Start] = gu.next.chi[k]
		}
		if err := o.uploadTree(ctx, t.spec.Table, chi); err != nil {
			return err
		}
	}
	gu.uploadNS = time.Since(start).Nanoseconds()
	return nil
}

// commitUpdate folds an acknowledged update into the loaded dataset
// (which owner-local query state such as exemplary-aggregation values is
// computed from) and the retained tables. Caller holds u.t.upMu.
func (o *Owner) commitUpdate(u *update) {
	o.mu.Lock()
	o.data, o.appendable = u.data, u.data
	o.mu.Unlock()
	for k, c := range u.cells {
		u.t.chi[c], u.t.mult[c] = u.next.chi[k], u.next.mult[k]
		for col, vs := range u.next.sums {
			u.t.sums[col][c] = vs[k]
		}
	}
}
