// Incremental updates (owner side). Instead of rebuilding and
// re-outsourcing the full O(b) table after a tuple-set change, the
// owner works out the cells the added/removed tuples touch, re-shares
// those cells' new values, and sends each server one StoreDelta request
// — compact (position, absolute share value) lists the servers merge
// over the base. Cost is O(changed cells · log b), independent of b
// except for the permutation lookups.
//
// Prepare validates the change and builds the requests without touching
// owner state, ship sends them, and commit folds the change into the
// loaded dataset and the retained tables once every server of every
// touched group has acknowledged — so a failed update leaves the owner
// as it was and, the values being absolute, shipping it again brings
// every server to the same state.
package ownerengine

import (
	"context"
	"errors"
	"fmt"
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
	UploadNS int64 // the one StoreDelta exchange
	Cells    uint64
	// FastPath reports that the append-only fold ran: with no removals
	// the O(n) removal-match scan and the kept-tuple rebuild are skipped
	// and the adds fold in by direct append.
	FastPath bool
}

// update is one group's prepared update: the servers' requests and what
// commit folds once they are acknowledged. From prepareUpdate until
// commit or release it holds the table's update lock.
type update struct {
	t     *localTable
	data  *Data       // the loaded dataset with the change folded in
	cells []uint64    // the changed natural cells
	next  *localTable // their new χ, multiplicity and sums, parallel to cells
	reqs  [params.NumServers]protocol.StoreDeltaRequest
	stats UpdateStats
}

// release drops the table's update lock without folding anything.
func (u *update) release() { u.t.upMu.Unlock() }

// prepareUpdate validates a tuple-set change against an outsourced table
// and builds its delta requests. Removed tuples must match currently
// loaded tuples — same cell, same aggregation values — or the update is
// rejected. Nothing the engine holds is modified; an update that changes
// no cell prepares to nil.
func (o *engine) prepareUpdate(table string, add, remove *Data) (*update, error) {
	t, err := o.localTableFor(table)
	if err != nil {
		return nil, err
	}
	if t.mult == nil {
		return nil, fmt.Errorf("ownerengine: table %q has no update state (outsourced by an older process? use AdoptTable)", table)
	}
	for _, d := range []*Data{add, remove} {
		if d == nil {
			continue
		}
		if err := d.Validate(t.b, o.view.MaxAgg); err != nil {
			return nil, err
		}
		for _, col := range t.spec.AggCols {
			if len(d.Cells) > 0 && d.Aggs[col] == nil {
				return nil, fmt.Errorf("ownerengine: update data has no column %q", col)
			}
		}
	}

	// One update at a time per table: each carries absolute replacement
	// values computed from the retained state, so two interleaved updates
	// racing to the servers could land out of order and leave the older
	// absolute value on top.
	t.upMu.Lock()
	u := &update{t: t}
	if err := o.buildUpdate(u, add, remove); err != nil || len(u.cells) == 0 {
		t.upMu.Unlock()
		return nil, err
	}
	return u, nil
}

// buildUpdate fills in u for a validated change. Caller holds t.upMu.
func (o *engine) buildUpdate(u *update, add, remove *Data) error {
	t, spec := u.t, u.t.spec
	start := time.Now()
	o.mu.Lock()
	d := o.data
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
	// same aggregation values across every loaded column).
	taken := make(map[int]bool)
	for i := 0; remove != nil && i < len(remove.Cells); i++ {
		c, found := remove.Cells[i], -1
		for j, dc := range d.Cells {
			if dc != c || taken[j] {
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
		taken[found] = true
	}
	// Fold the dataset copy-on-write: in-flight queries iterating the old
	// Data, and a failed update, keep their snapshot. Without removals
	// (the append-only fast path) the kept tuples are the old arrays,
	// capacity capped at their length so that appending the adds copies.
	u.stats.FastPath = len(taken) == 0
	keep := func(vs []uint64) []uint64 {
		if u.stats.FastPath {
			return vs[:len(vs):len(vs)]
		}
		kept := make([]uint64, 0, len(vs)-len(taken))
		for j, v := range vs {
			if !taken[j] {
				kept = append(kept, v)
			}
		}
		return kept
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
	u.next = &localTable{spec: spec, sums: make(map[string][]uint64, len(spec.AggCols))}
	next, at := u.next, make(map[uint64]int)
	for _, side := range []struct {
		d        *Data
		removing bool
	}{{remove, true}, {add, false}} {
		if side.d == nil {
			continue
		}
		for i, c := range side.d.Cells {
			k, seen := at[c]
			if !seen {
				k, at[c] = len(u.cells), len(u.cells)
				u.cells = append(u.cells, c)
				next.mult = append(next.mult, t.mult[c])
				for _, col := range spec.AggCols {
					next.sums[col] = append(next.sums[col], t.sums[col][c])
				}
			}
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

	// Stored positions of the changed cells, ascending — once per
	// permutation space, since DB1 (χ, sums, counts) and DB2 (χ̄,
	// v-columns) scatter the same cell to different positions — and the
	// rank permutation that puts the cells' values in that order.
	ranked := func(db perm.Perm) (perm.Perm, []uint64) {
		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(i, j int) bool { return db[u.cells[order[i]]] < db[u.cells[order[j]]] })
		rank, pos := make(perm.Perm, n), make([]uint64, n)
		for r, k := range order {
			rank[k], pos[r] = uint32(r), uint64(db[u.cells[k]])
		}
		return rank, pos
	}
	rank1, pos1 := ranked(o.view.DB1)
	var rank2 perm.Perm
	var pos2 []uint64
	if spec.Verify {
		rank2, pos2 = ranked(o.view.DB2)
	}
	u.stats.BuildNS = time.Since(start).Nanoseconds()

	start = time.Now()
	sh := o.split(next, rank1, rank2)
	for phi := range u.reqs {
		c := sh.server(phi, 0, uint64(n))
		u.reqs[phi] = protocol.StoreDeltaRequest{
			Owner: o.Index, Group: o.view.Group, Table: spec.Table,
			Pos: pos1, Chi: c.ChiAdd, Sums: c.SumCols, Cnt: c.CountCol,
			VPos: pos2, ChiBar: c.ChiBarAdd, VSums: c.VSumCols, VCnt: c.VCountCol,
		}
	}
	u.stats.SplitNS = time.Since(start).Nanoseconds()
	return nil
}

// shipUpdate sends each server of the group its one request and returns
// once all three have answered: nil, or the refusals joined.
func (o *engine) shipUpdate(ctx context.Context, u *update) error {
	start := time.Now()
	replies, err := o.callServers(ctx, params.NumServers, func(phi int) any { return u.reqs[phi] })
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
	u.stats.UploadNS = time.Since(start).Nanoseconds()
	return nil
}

// commitUpdate folds an acknowledged update into the loaded dataset
// (which owner-local query state such as exemplary-aggregation values is
// computed from) and the retained tables, and releases the update lock.
func (o *engine) commitUpdate(u *update) {
	o.mu.Lock()
	o.data = u.data
	o.mu.Unlock()
	for k, c := range u.cells {
		u.t.chi[c], u.t.mult[c] = u.next.chi[k], u.next.mult[k]
		for col, vs := range u.next.sums {
			u.t.sums[col][c] = vs[k]
		}
	}
	u.release()
}
