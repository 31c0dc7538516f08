// Incremental updates (owner side). Instead of rebuilding and
// re-outsourcing the full O(b) table after a tuple-set change, the
// owner folds the added/removed tuples into its retained natural-order
// tables, recomputes only the touched cells, re-shares those cells'
// values, and ships them to the servers as StoreDelta windows — compact
// (position, absolute share value) lists the servers merge over the
// base. Cost is O(changed cells · log b), independent of b except for
// the permutation lookups.
package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"prism/internal/field"
	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/share"
)

// UpdateStats reports one incremental update's cost, mirroring
// ShareGenStats for the full outsource path so the two are directly
// comparable in benchmarks.
type UpdateStats struct {
	BuildNS  int64 // fold + changed-cell recomputation
	SplitNS  int64 // secret-share generation for the changed cells
	UploadNS int64 // delta-window transport
	Cells    uint64
	Windows  int // delta windows actually shipped (empty ones are skipped)
	// FastPath reports that the append-only fold ran: with no removals
	// the O(n) removal-match scan and the kept-tuple rebuild are skipped
	// and the adds fold in by direct append.
	FastPath bool
}

// Update applies a tuple-set change to an outsourced table: add and
// remove list tuples in the Data format (either may be nil). Removed
// tuples must match currently loaded tuples — same cell, same
// aggregation values — or the update is rejected before anything is
// mutated. On success both the loaded dataset (which owner-local query
// state such as exemplary-aggregation values is computed from) and the
// retained table state are folded forward, then only the changed cells
// are re-shared and shipped to the servers.
func (o *engine) Update(ctx context.Context, table string, add, remove *Data) (UpdateStats, error) {
	var stats UpdateStats
	t, err := o.localTableFor(table)
	if err != nil {
		return stats, err
	}
	if t.mult == nil {
		return stats, fmt.Errorf("ownerengine: table %q has no update state (outsourced by an older process? use AdoptTable)", table)
	}
	for _, d := range []*Data{add, remove} {
		if d == nil {
			continue
		}
		if err := d.Validate(t.b, o.view.MaxAgg); err != nil {
			return stats, err
		}
		for _, col := range t.spec.AggCols {
			if len(d.Cells) > 0 && d.Aggs[col] == nil {
				return stats, fmt.Errorf("ownerengine: update data has no column %q", col)
			}
		}
	}

	// One update at a time per table: each window carries absolute
	// replacement values computed from the folded state, so two
	// interleaved updates racing to the servers could land out of order
	// and leave the older absolute value on top.
	t.upMu.Lock()
	defer t.upMu.Unlock()

	start := time.Now()
	o.mu.Lock()
	d := o.data
	o.mu.Unlock()
	if d == nil {
		return stats, errors.New("ownerengine: no data loaded")
	}
	// Match every removal against a distinct loaded tuple (same cell,
	// same aggregation values across every loaded column) before
	// anything is mutated, so a failed update leaves all state
	// untouched. The adds must cover the loaded column set, or the
	// updated dataset's parallel arrays would go ragged.
	for col := range d.Aggs {
		for _, u := range []*Data{add, remove} {
			if u != nil && len(u.Cells) > 0 && u.Aggs[col] == nil {
				return stats, fmt.Errorf("ownerengine: update data has no column %q (loaded dataset has it)", col)
			}
		}
	}
	// Append-only fast path: with no removals there is nothing to match
	// against the loaded tuples, so skip the O(n·r) scan and the
	// kept-tuple rebuild entirely and fold the adds in by appending to
	// the existing parallel arrays. The three-index slice expressions cap
	// capacity at the current length, forcing the appends to copy — the
	// old Data snapshot stays intact for in-flight queries.
	var nd *Data
	if remove == nil || len(remove.Cells) == 0 {
		stats.FastPath = true
		nd = &Data{
			Cells: d.Cells[:len(d.Cells):len(d.Cells)],
			Aggs:  make(map[string][]uint64, len(d.Aggs)),
		}
		if add != nil {
			nd.Cells = append(nd.Cells, add.Cells...)
		}
		for col, vs := range d.Aggs {
			kept := vs[:len(vs):len(vs)]
			if add != nil {
				kept = append(kept, add.Aggs[col]...)
			}
			nd.Aggs[col] = kept
		}
	} else {
		taken := make(map[int]bool)
		for i, c := range remove.Cells {
			found := -1
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
				return stats, fmt.Errorf("ownerengine: removal %d (cell %d) matches no loaded tuple", i, c)
			}
			taken[found] = true
		}
		// Fold the dataset copy-on-write: in-flight queries iterating the
		// old Data keep a consistent snapshot.
		nd = &Data{Aggs: make(map[string][]uint64, len(d.Aggs))}
		for j, c := range d.Cells {
			if !taken[j] {
				nd.Cells = append(nd.Cells, c)
			}
		}
		if add != nil {
			nd.Cells = append(nd.Cells, add.Cells...)
		}
		for col, vs := range d.Aggs {
			kept := make([]uint64, 0, len(nd.Cells))
			for j := range d.Cells {
				if !taken[j] {
					kept = append(kept, vs[j])
				}
			}
			if add != nil {
				kept = append(kept, add.Aggs[col]...)
			}
			nd.Aggs[col] = kept
		}
	}

	// Guard the retained table state separately: if the loaded dataset
	// was replaced after the outsource, a matched removal may still not
	// exist in the outsourced table.
	if remove != nil {
		pending := make(map[uint64]uint64)
		for _, c := range remove.Cells {
			pending[c]++
			if pending[c] > t.mult[c] {
				return stats, fmt.Errorf("ownerengine: removing %d tuples from cell %d, outsourced table holds %d", pending[c], c, t.mult[c])
			}
		}
	}
	changed := make(map[uint64]struct{})
	fold := func(d *Data, sign int) {
		if d == nil {
			return
		}
		for i, c := range d.Cells {
			changed[c] = struct{}{}
			if sign > 0 {
				t.mult[c]++
			} else {
				t.mult[c]--
			}
			for _, col := range t.spec.AggCols {
				v := field.Reduce(d.Aggs[col][i])
				if sign > 0 {
					t.sums[col][c] = field.Add(t.sums[col][c], v)
				} else {
					t.sums[col][c] = field.Sub(t.sums[col][c], v)
				}
			}
		}
	}
	fold(add, +1)
	fold(remove, -1)
	if len(changed) == 0 {
		return stats, nil
	}
	for c := range changed {
		if t.mult[c] > 0 {
			t.chi[c] = 1
		} else {
			t.chi[c] = 0
		}
	}
	stats.Cells = uint64(len(changed))

	// Changed cells sorted by stored position — once per permutation
	// space, since DB1 (χ, sums, counts) and DB2 (χ̄, v-columns) scatter
	// the same cell to different positions.
	spec := t.spec
	cells1 := make([]uint64, 0, len(changed)) // natural cells, DB1-order
	for c := range changed {
		cells1 = append(cells1, c)
	}
	pos1 := make([]uint64, len(cells1))
	order := func(cells, pos []uint64, image func(int) int) {
		sort.Slice(cells, func(i, j int) bool { return image(int(cells[i])) < image(int(cells[j])) })
		for i, c := range cells {
			pos[i] = uint64(image(int(c)))
		}
	}
	order(cells1, pos1, o.view.DB1.Image)
	var cells2, pos2 []uint64
	if spec.Verify {
		cells2 = append([]uint64(nil), cells1...)
		pos2 = make([]uint64, len(cells2))
		order(cells2, pos2, o.view.DB2.Image)
	}
	chiVals := make([]uint16, len(cells1))
	cntVals := make([]uint64, len(cells1))
	sumVals := make(map[string][]uint64, len(spec.AggCols))
	for _, col := range spec.AggCols {
		sumVals[col] = make([]uint64, len(cells1))
	}
	for i, c := range cells1 {
		chiVals[i] = t.chi[c]
		cntVals[i] = t.mult[c]
		for _, col := range spec.AggCols {
			sumVals[col][i] = t.sums[col][c]
		}
	}
	var barVals []uint16
	vsumVals := make(map[string][]uint64)
	var vcntVals []uint64
	if spec.Verify {
		barVals = make([]uint16, len(cells2))
		vcntVals = make([]uint64, len(cells2))
		for _, col := range spec.AggCols {
			vsumVals[col] = make([]uint64, len(cells2))
		}
		for i, c := range cells2 {
			barVals[i] = 1 - t.chi[c]
			vcntVals[i] = t.mult[c]
			for _, col := range spec.AggCols {
				vsumVals[col][i] = t.sums[col][c]
			}
		}
	}
	stats.BuildNS = time.Since(start).Nanoseconds()

	// ---- secret-share the changed cells ----
	// Same locking rationale as Outsource: splitting draws from the root
	// PRG under the engine lock, keeping the share stream deterministic.
	o.mu.Lock()
	o.data = nd // the folded dataset becomes the loaded one
	start = time.Now()
	chiShares := share.AdditiveSplitVector(o.rng, chiVals, o.view.Delta, 2)
	var barShares [][]uint16
	if spec.Verify {
		barShares = share.AdditiveSplitVector(o.rng, barVals, o.view.Delta, 2)
	}
	sumShares := make(map[string][][]uint64, len(sumVals))
	vsumShares := make(map[string][][]uint64)
	for col, v := range sumVals {
		sumShares[col] = share.ShamirSplitVector(o.rng, v, 1, 3)
	}
	if spec.Verify {
		for col, v := range vsumVals {
			vsumShares[col] = share.ShamirSplitVector(o.rng, v, 1, 3)
		}
	}
	var cntShares, vcntShares [][]uint64
	if spec.WithCount {
		cntShares = share.ShamirSplitVector(o.rng, cntVals, 1, 3)
		if spec.Verify {
			vcntShares = share.ShamirSplitVector(o.rng, vcntVals, 1, 3)
		}
	}
	stats.SplitNS = time.Since(start).Nanoseconds()
	o.mu.Unlock()

	// ---- ship the delta windows ----
	// Reuse the outsource window plan, but skip windows no changed
	// position falls into: update cost must scale with the change, not
	// with b/shardCells.
	start = time.Now()
	sub := func(pos []uint64, rg protocol.Range) (int, int) {
		i := sort.Search(len(pos), func(k int) bool { return pos[k] >= rg.Offset })
		j := sort.Search(len(pos), func(k int) bool { return pos[k] >= rg.End() })
		return i, j
	}
	var live []protocol.Range
	for _, rg := range o.plan(t.b) {
		i1, j1 := sub(pos1, rg)
		i2, j2 := sub(pos2, rg)
		if j1 > i1 || j2 > i2 {
			live = append(live, rg)
		}
	}
	stats.Windows = len(live)
	total := 0
	err = o.forEachShard(ctx, live, params.NumServers, func(phi int, rg protocol.Range) any {
		req := protocol.StoreDeltaRequest{Owner: o.Index, Group: o.view.Group, Table: table, Shard: rg}
		i1, j1 := sub(pos1, rg)
		req.Pos = pos1[i1:j1]
		if phi < 2 {
			req.Chi = chiShares[phi][i1:j1]
		}
		req.Sums = make(map[string][]uint64, len(sumShares))
		for col, sh := range sumShares {
			req.Sums[col] = sh[phi][i1:j1]
		}
		if spec.WithCount {
			req.Cnt = cntShares[phi][i1:j1]
		}
		if spec.Verify {
			i2, j2 := sub(pos2, rg)
			req.VPos = pos2[i2:j2]
			if phi < 2 {
				req.ChiBar = barShares[phi][i2:j2]
			}
			req.VSums = make(map[string][]uint64, len(vsumShares))
			for col, sh := range vsumShares {
				req.VSums[col] = sh[phi][i2:j2]
			}
			if spec.WithCount {
				req.VCnt = vcntShares[phi][i2:j2]
			}
		}
		return req
	}, func(rg protocol.Range, replies []any) error {
		for _, r := range replies {
			rep, ok := r.(protocol.StoreDeltaReply)
			if !ok {
				return fmt.Errorf("ownerengine: unexpected delta reply %T", r)
			}
			total += rep.Entries
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	if total == 0 && len(changed) > 0 {
		return stats, errors.New("ownerengine: no server accepted any delta entry")
	}
	stats.UploadNS = time.Since(start).Nanoseconds()
	return stats, nil
}
