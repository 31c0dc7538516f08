package ownerengine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"prism/internal/bucket"
	"prism/internal/protocol"
	"prism/internal/share"
)

// bucketFanout is the fanout of every bucket tree (§6.6). It is fixed, so
// any owner process derives a group's tree shape from the group's size
// alone and can run the traversal without the process that outsourced it.
const bucketFanout = 8

// bucketLevelTable names level k of table's bucket tree. The fanout is in
// the name: a tree built at another fanout reads as an unknown table,
// never as a wrong answer.
func bucketLevelTable(table string, k int) string {
	return fmt.Sprintf("%s-bt%d/L%d", table, bucketFanout, k)
}

// uploadTree outsources each level of the bucket tree over the natural-
// order membership bitmap chi as a Plain (unpermuted) additive-share
// table (§6.6 Steps 1a-1b), through the same windowed upload as the main
// table. Bucketized PSI trades the permutation layer for frontier
// pruning — the traversal pattern is revealed by design, as in the
// paper, where owners explicitly request child buckets.
func (o *engine) uploadTree(ctx context.Context, table string, chi []uint16) error {
	tree, err := bucket.Build(chi, bucketFanout)
	if err != nil {
		return err
	}
	for k, level := range tree.Levels {
		o.mu.Lock()
		shares := share.AdditiveSplitVector(o.rng, level, o.view.Delta, 2)
		o.mu.Unlock()
		spec := protocol.TableSpec{Name: bucketLevelTable(table, k), B: uint64(len(level)), Plain: true}
		err := o.upload(ctx, spec, 2, func(phi int, rg protocol.Range) protocol.StoreRequest {
			return protocol.StoreRequest{ChiAdd: shares[phi][rg.Offset:rg.End()]}
		})
		if err != nil {
			return fmt.Errorf("ownerengine: outsourcing bucket level %d: %w", k, err)
		}
	}
	return nil
}

// BucketResult answers bucketized PSI (§6.6) in this group: PSI on the
// top level of the group's tree, then, one level per round, PSI on the
// children of the common buckets, down to the leaves. Each level is a
// set round over runs of children — adjacent common buckets' children
// merge into one run — cut into windows, so the servers learn the
// traversal the paper reveals and no frame outgrows a window. The
// answer is unverified: the levels carry no χ̄ side. Stats.Server.Cells
// counts the cells S0 and S1 ran PSI on, twice the "actual domain size"
// Figure 5 plots.
func (o *engine) BucketResult(ctx context.Context, table string) (*Result, error) {
	sizes := []uint64{o.view.B} // nodes per level, level 0 = leaves
	for n := o.view.B; n > 1; {
		n = (n + bucketFanout - 1) / bucketFanout
		sizes = append(sizes, n)
	}
	res := &Result{}
	one := uint32(1 % o.view.Eta)
	top := len(sizes) - 1
	runs := []protocol.Range{{Count: sizes[top]}}
	for k := top; k >= 0 && len(runs) > 0; k-- {
		var common []uint64
		q := setQuery{name: fmt.Sprintf("bpsi-L%d", k), table: bucketLevelTable(table, k)}
		stats, err := o.setRound(ctx, q, o.plan(runs...), [2][]uint32{}, func(rg protocol.Range, fop, _ []uint32) error {
			for i, v := range fop {
				if v == one {
					common = append(common, rg.Offset+uint64(i))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Stats.add(stats)
		start := time.Now()
		slices.Sort(common) // windows land in any order
		if k == 0 {
			res.Cells = common
		} else {
			runs = children(common, sizes[k-1])
		}
		res.Stats.OwnerNS += time.Since(start).Nanoseconds()
	}
	return res, nil
}

// children returns the runs that a level's common buckets, sorted, expand
// to on the level below, of size cells (§6.6 Step 3): each bucket's
// fanout children, the last bucket's cut at the level's end, with
// adjacent buckets' children joined into one run.
func children(common []uint64, size uint64) []protocol.Range {
	var runs []protocol.Range
	for _, node := range common {
		lo, hi := node*bucketFanout, min(node*bucketFanout+bucketFanout, size)
		if n := len(runs); n > 0 && runs[n-1].End() == lo {
			runs[n-1].Count += hi - lo
		} else {
			runs = append(runs, protocol.Range{Offset: lo, Count: hi - lo})
		}
	}
	return runs
}
