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

// bucketMeta retains the tree shape for the query driver.
type bucketMeta struct {
	fanout int
	sizes  []int // nodes per level, level 0 = leaves
}

// OutsourceBucketTree outsources each level of the owner's bucket tree
// as a Plain (unpermuted) additive-share table named base/L<k>
// (§6.6 Steps 1a-1b). Bucketized PSI trades the permutation layer for
// frontier pruning — the traversal pattern is revealed by design, as in
// the paper, where owners explicitly request child buckets.
//
// Each level uploads as Outsource does — shardCells windows, the same
// assembly, supersede and register-on-complete semantics — so bucket
// trees scale to the same domains the main table does.
func (o *engine) OutsourceBucketTree(ctx context.Context, base string, tree *bucket.Tree) error {
	for k, level := range tree.Levels {
		o.mu.Lock()
		shares := share.AdditiveSplitVector(o.rng, level, o.view.Delta, 2)
		o.mu.Unlock()
		spec := protocol.TableSpec{Name: bucketLevelTable(base, k), B: uint64(len(level)), Plain: true}
		err := o.upload(ctx, spec, 2, func(phi int, rg protocol.Range) protocol.StoreRequest {
			return protocol.StoreRequest{ChiAdd: shares[phi][rg.Offset:rg.End()]}
		})
		if err != nil {
			return fmt.Errorf("ownerengine: outsourcing bucket level %d: %w", k, err)
		}
	}
	sizes := make([]int, tree.Height())
	for k := range sizes {
		sizes[k] = tree.LevelSize(k)
	}
	o.mu.Lock()
	o.tables[base+"/bucket-meta"] = &localTable{
		spec: OutsourceSpec{Table: base},
		b:    uint64(tree.LevelSize(0)),
	}
	o.bucketMeta[base] = &bucketMeta{fanout: tree.Fanout, sizes: sizes}
	o.mu.Unlock()
	return nil
}

func bucketLevelTable(base string, level int) string {
	return fmt.Sprintf("%s/L%d", base, level)
}

// BucketPSIResult is the outcome of a bucketized PSI (§6.6).
type BucketPSIResult struct {
	Cells []uint64 // common leaf cells
	// Visited is the "actual domain size": cells PSI executed on across
	// all rounds (the Figure 5 metric).
	Visited uint64
	Rounds  int
	Stats   QueryStats
}

// BucketizedPSI runs the §6.6 protocol: PSI on the top level, then, one
// level per round, PSI on the children of the common buckets, down to
// the leaves. Each level is a set round over runs of children — adjacent
// common buckets' children merge into one run — cut into windows, so the
// servers learn the traversal the paper reveals and no frame outgrows a
// window. The answer is unverified: the levels carry no χ̄ side.
func (o *engine) BucketizedPSI(ctx context.Context, base string) (*BucketPSIResult, error) {
	o.mu.Lock()
	meta := o.bucketMeta[base]
	o.mu.Unlock()
	if meta == nil {
		return nil, fmt.Errorf("ownerengine: no bucket tree outsourced under %q", base)
	}
	wall := time.Now()
	res := &BucketPSIResult{}
	one := uint32(1 % o.view.Eta)
	top := len(meta.sizes) - 1
	runs := []protocol.Range{{Count: uint64(meta.sizes[top])}}
	for k := top; k >= 0 && len(runs) > 0; k-- {
		var common []uint64
		q := setQuery{name: fmt.Sprintf("bpsi-L%d", k), table: bucketLevelTable(base, k)}
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
		for _, run := range runs {
			res.Visited += run.Count
		}
		start := time.Now()
		slices.Sort(common) // windows land in any order
		if k == 0 {
			res.Cells = common
		} else {
			runs = meta.children(common, k)
		}
		res.Stats.OwnerNS += time.Since(start).Nanoseconds()
	}
	res.Rounds = res.Stats.Rounds
	res.Stats.WallNS = time.Since(wall).Nanoseconds()
	return res, nil
}

// children returns the runs that level k's common buckets, sorted,
// expand to on level k-1 (§6.6 Step 3): each bucket's fanout children,
// the last bucket's cut at the level's end, with adjacent buckets'
// children joined into one run.
func (m *bucketMeta) children(common []uint64, k int) []protocol.Range {
	var runs []protocol.Range
	f, size := uint64(m.fanout), uint64(m.sizes[k-1])
	for _, node := range common {
		lo, hi := node*f, min(node*f+f, size)
		if n := len(runs); n > 0 && runs[n-1].End() == lo {
			runs[n-1].Count += hi - lo
		} else {
			runs = append(runs, protocol.Range{Offset: lo, Count: hi - lo})
		}
	}
	return runs
}
