// Package bucket implements the bucketization optimisation of paper
// §6.6: a bottom-up bucket tree over the χ domain cells. PSI runs level
// by level from the top; only children of common buckets are expanded,
// so sparse domains (e.g. the cartesian product of several attribute
// domains) avoid touching most cells.
//
// The package provides both the per-owner tree construction (used by the
// real protocol driver in internal/ownerengine) and a pure traversal
// simulator used to regenerate Figure 5 at the paper's full scale
// (100M leaves) without materialising cryptographic shares.
package bucket

import (
	"errors"
	"fmt"
	"slices"
)

// Tree is one owner's bucket tree. Levels[0] is the leaf bitmap (the χ
// table); Levels[k][i] = 1 iff any of node i's children at level k-1 is 1.
type Tree struct {
	Fanout int
	Levels [][]uint16
}

// Build constructs the tree over a leaf bitmap.
func Build(leaves []uint16, fanout int) (*Tree, error) {
	if fanout < 2 {
		return nil, errors.New("bucket: fanout must be >= 2")
	}
	if len(leaves) == 0 {
		return nil, errors.New("bucket: empty leaf level")
	}
	t := &Tree{Fanout: fanout, Levels: [][]uint16{leaves}}
	for len(t.Levels[len(t.Levels)-1]) > 1 {
		cur := t.Levels[len(t.Levels)-1]
		parentN := (len(cur) + fanout - 1) / fanout
		parents := make([]uint16, parentN)
		for i, v := range cur {
			if v != 0 {
				parents[i/fanout] = 1
			}
		}
		t.Levels = append(t.Levels, parents)
	}
	return t, nil
}

// BuildFromCells builds the tree for an owner holding the given occupied
// cells in a domain of b leaves.
func BuildFromCells(b uint64, cells []uint64, fanout int) (*Tree, error) {
	leaves := make([]uint16, b)
	for _, c := range cells {
		if c >= b {
			return nil, fmt.Errorf("bucket: cell %d outside domain of %d leaves", c, b)
		}
		leaves[c] = 1
	}
	return Build(leaves, fanout)
}

// Height returns the number of levels including leaves.
func (t *Tree) Height() int { return len(t.Levels) }

// NodeCount returns the total number of nodes across all levels.
func (t *Tree) NodeCount() uint64 {
	var n uint64
	for _, l := range t.Levels {
		n += uint64(len(l))
	}
	return n
}

// Children returns the level-(k-1) indices of node i's children.
func (t *Tree) Children(k int, i uint32) (lo, hi uint32) {
	lo = i * uint32(t.Fanout)
	hi = lo + uint32(t.Fanout)
	if n := uint32(len(t.Levels[k-1])); hi > n {
		hi = n
	}
	return lo, hi
}

// Validate checks structural consistency: a parent bit is set iff some
// child bit is set.
func (t *Tree) Validate() error {
	for k := 1; k < len(t.Levels); k++ {
		for i := range t.Levels[k] {
			lo, hi := t.Children(k, uint32(i))
			var any uint16
			for c := lo; c < hi; c++ {
				if t.Levels[k-1][c] != 0 {
					any = 1
					break
				}
			}
			if any != t.Levels[k][i] {
				return fmt.Errorf("bucket: level %d node %d inconsistent with children", k, i)
			}
		}
	}
	return nil
}

// TraverseStats reports one simulated bucketized-PSI traversal.
type TraverseStats struct {
	// Visited is the "actual domain size" of Figure 5: the total number
	// of nodes PSI executed on across all rounds.
	Visited uint64
	// Rounds is the number of PSI rounds (levels descended).
	Rounds int
	// CommonLeaves is the final intersection size.
	CommonLeaves uint64
}

// Traverse simulates the §6.6 bucketized PSI over m owners' trees: at
// each level, PSI runs over the current frontier; only children of
// common buckets are expanded. It returns the visited-node count that
// Figure 5 plots as "actual domain size".
func Traverse(trees []*Tree) (TraverseStats, error) {
	var st TraverseStats
	if len(trees) == 0 {
		return st, errors.New("bucket: no trees")
	}
	h := trees[0].Height()
	fanout := trees[0].Fanout
	for _, t := range trees[1:] {
		if t.Height() != h || t.Fanout != fanout || len(t.Levels[0]) != len(trees[0].Levels[0]) {
			return st, errors.New("bucket: owners' trees have different shapes")
		}
	}
	// Frontier starts with every node of the top level.
	top := h - 1
	frontier := make([]uint32, len(trees[0].Levels[top]))
	for i := range frontier {
		frontier[i] = uint32(i)
	}
	for k := top; k >= 0; k-- {
		st.Visited += uint64(len(frontier))
		st.Rounds++
		// PSI over the frontier: common iff every owner has a 1.
		var common []uint32
		for _, node := range frontier {
			all := true
			for _, t := range trees {
				if t.Levels[k][node] == 0 {
					all = false
					break
				}
			}
			if all {
				common = append(common, node)
			}
		}
		if k == 0 {
			st.CommonLeaves = uint64(len(common))
			break
		}
		frontier = frontier[:0]
		for _, node := range common {
			lo, hi := trees[0].Children(k, node)
			for c := lo; c < hi; c++ {
				frontier = append(frontier, c)
			}
		}
		if len(frontier) == 0 {
			break
		}
	}
	return st, nil
}

// FlatCost returns the §6.6 baseline: PSI without bucketization touches
// every leaf exactly once.
func FlatCost(leafCount uint64) uint64 { return leafCount }

// OccupiedStats summarises a simulated occupancy experiment without
// building per-owner trees (used at the 100M scale of Figure 5, where a
// single shared occupancy bitmap drives all owners).
type OccupiedStats struct {
	TotalNodes uint64
	Visited    uint64
	Rounds     int
}

// SimulateSharedOccupancy computes the Figure 5 traversal for m owners
// holding the same occupied leaf set (the paper plants identical random
// data so the intersection survives to the leaves). Instead of bitmaps it
// tracks sorted occupied node sets per level, so 100M-leaf domains fit in
// memory proportional to the fill, not the domain.
//
// levels[k] must be the sorted, de-duplicated occupied node indices at
// level k (k = 0 leaves). Use OccupyLevels to derive them from leaf cells.
func SimulateSharedOccupancy(leafCount uint64, fanout int, levels [][]uint64) OccupiedStats {
	var st OccupiedStats
	h := len(levels)
	// Total node population per level, for TotalNodes.
	size := leafCount
	st.TotalNodes = size
	for size > 1 {
		size = (size + uint64(fanout) - 1) / uint64(fanout)
		st.TotalNodes += size
	}
	// Frontier at top level = all nodes of that level (paper starts PSI
	// from the whole top level). Sizes per level:
	sizes := make([]uint64, h)
	sizes[0] = leafCount
	for k := 1; k < h; k++ {
		sizes[k] = (sizes[k-1] + uint64(fanout) - 1) / uint64(fanout)
	}
	top := h - 1
	st.Visited += sizes[top]
	st.Rounds++
	// Below the top, PSI executes on fanout children of every occupied
	// (= common, since owners share occupancy) node at the level above.
	for k := top; k >= 1; k-- {
		occupied := uint64(len(levels[k]))
		frontier := occupied * uint64(fanout)
		// The last node of a level can have fewer children.
		if len(levels[k]) > 0 && levels[k][len(levels[k])-1] == sizes[k]-1 {
			lastChildren := sizes[k-1] - (sizes[k]-1)*uint64(fanout)
			frontier -= uint64(fanout) - lastChildren
		}
		st.Visited += frontier
		st.Rounds++
	}
	return st
}

// OccupyLevels derives the sorted occupied node indices per level from
// the occupied leaf cells.
func OccupyLevels(leafCount uint64, fanout int, cells []uint64) [][]uint64 {
	// Leaves must be sorted & unique.
	sorted := dedupSorted(cells)
	levels := [][]uint64{sorted}
	size := leafCount
	cur := sorted
	for size > 1 {
		size = (size + uint64(fanout) - 1) / uint64(fanout)
		next := make([]uint64, 0, len(cur)/fanout+1)
		for _, c := range cur {
			p := c / uint64(fanout)
			if len(next) == 0 || next[len(next)-1] != p {
				next = append(next, p)
			}
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

func dedupSorted(cells []uint64) []uint64 {
	out := append([]uint64(nil), cells...)
	slices.Sort(out)
	return slices.Compact(out)
}
