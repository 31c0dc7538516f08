package main

import (
	"fmt"
	"sync"

	"prism/internal/baseline"
	"prism/internal/workload"
)

// aggCol is the one aggregation column the deployment outsources.
const aggCol = "DT"

// tuple is one row of an owner's table in cell form.
type tuple struct {
	Cell uint64
	Aggs [4]uint64 // parallel to workload.Columns
}

func (t tuple) dt() uint64 { return t.Aggs[len(t.Aggs)-1] }

// answer is a query reply in the form both paths (direct and gateway)
// reduce to before the oracle sees it.
type answer struct {
	Cells   []uint64
	Count   int
	Sums    map[uint64]uint64 // sum(DT) per result cell
	Extreme map[uint64]uint64 // max(DT) per result cell
	Global  *uint64
}

// oracle is the plaintext ground truth: per-cell tuple counts per owner
// and the cross-owner DT total, kept current under the harness's own
// updates. Its mutex is also the update/read gate of README "Known
// finding": queries hold it shared while they run and are checked,
// updates hold it exclusively.
type oracle struct {
	gate sync.RWMutex

	owners int
	cnt    [][]uint16 // [owner][cell] tuples held
	has    []uint8    // [cell] owners holding at least one tuple
	sum    []uint64   // [cell] Σ DT over all owners' tuples
	interN int
	unionN int
	// maxDT is max(DT) at the initial intersection cells. Updates do not
	// maintain it: no workload mixes updates with the max operator.
	maxDT map[uint64]uint64
}

// newOracle builds the ground truth from the generated tables and checks
// it against the repo's reference implementations before trusting it.
func newOracle(data []*workload.OwnerData, cells uint64) (*oracle, error) {
	o := &oracle{
		owners: len(data),
		cnt:    make([][]uint16, len(data)),
		has:    make([]uint8, cells),
		sum:    make([]uint64, cells),
		maxDT:  make(map[uint64]uint64),
	}
	for j := range data {
		o.cnt[j] = make([]uint16, cells)
	}
	for j, d := range data {
		for i, c := range d.Cells {
			o.add(j, c, d.Aggs[aggCol][i])
		}
	}

	inter := workload.Intersection(data)
	if len(inter) != o.interN || len(workload.Union(data)) != o.unionN {
		return nil, fmt.Errorf("oracle self-check: %d/%d intersection/union cells, workload package says %d/%d",
			o.interN, o.unionN, len(inter), len(workload.Union(data)))
	}
	sets := make([][]uint64, len(data))
	values := make([]map[uint64]uint64, len(data))
	for j, d := range data {
		sets[j] = d.Cells
		values[j] = make(map[uint64]uint64, len(d.Cells))
		for i, c := range d.Cells {
			values[j][c] = d.Aggs[aggCol][i]
			if inter[c] && d.Aggs[aggCol][i] > o.maxDT[c] {
				o.maxDT[c] = d.Aggs[aggCol][i]
			}
		}
	}
	for c, want := range baseline.PlaintextSum(sets, values) {
		if o.sum[c] != want {
			return nil, fmt.Errorf("oracle self-check: sum at cell %d is %d, baseline.PlaintextSum says %d", c, o.sum[c], want)
		}
	}
	return o, nil
}

func (o *oracle) add(owner int, cell, dt uint64) {
	o.cnt[owner][cell]++
	if o.cnt[owner][cell] == 1 {
		o.has[cell]++
		if o.has[cell] == 1 {
			o.unionN++
		}
		if int(o.has[cell]) == o.owners {
			o.interN++
		}
	}
	o.sum[cell] += dt
}

func (o *oracle) remove(owner int, cell, dt uint64) {
	o.cnt[owner][cell]--
	if o.cnt[owner][cell] == 0 {
		if int(o.has[cell]) == o.owners {
			o.interN--
		}
		o.has[cell]--
		if o.has[cell] == 0 {
			o.unionN--
		}
	}
	o.sum[cell] -= dt
}

// check compares one reply with the ground truth; the caller holds the
// gate (shared is enough).
func (o *oracle) check(kind string, a *answer) error {
	switch kind {
	case "psi":
		return o.checkCells(a.Cells, o.interN, o.owners)
	case "psu":
		return o.checkCells(a.Cells, o.unionN, 1)
	case "count":
		if a.Count != o.interN {
			return fmt.Errorf("count %d, oracle %d", a.Count, o.interN)
		}
	case "sum":
		if err := o.checkCells(a.Cells, o.interN, o.owners); err != nil {
			return err
		}
		for _, c := range a.Cells {
			if got, ok := a.Sums[c]; !ok || got != o.sum[c] {
				return fmt.Errorf("sum at cell %d is %d (present %v), oracle %d", c, got, ok, o.sum[c])
			}
		}
	case "max":
		if err := o.checkCells(a.Cells, o.interN, o.owners); err != nil {
			return err
		}
		var global uint64
		for _, c := range a.Cells {
			if got, ok := a.Extreme[c]; !ok || got != o.maxDT[c] {
				return fmt.Errorf("max at cell %d is %d (present %v), oracle %d", c, got, ok, o.maxDT[c])
			}
			global = max(global, o.maxDT[c])
		}
		if len(a.Cells) > 0 && (a.Global == nil || *a.Global != global) {
			return fmt.Errorf("global max %v, oracle %d", a.Global, global)
		}
	default:
		return fmt.Errorf("oracle: unknown query kind %q", kind)
	}
	return nil
}

// checkCells requires exactly n distinct cells, each held by at least
// minOwners owners — with n fixed that is set equality.
func (o *oracle) checkCells(cells []uint64, n, minOwners int) error {
	if len(cells) != n {
		return fmt.Errorf("%d result cells, oracle %d", len(cells), n)
	}
	for i, c := range cells {
		if i > 0 && c <= cells[i-1] {
			return fmt.Errorf("result cells not strictly ascending at index %d", i)
		}
		if c >= uint64(len(o.has)) || int(o.has[c]) < minOwners {
			return fmt.Errorf("cell %d is not in the oracle's result set", c)
		}
	}
	return nil
}
