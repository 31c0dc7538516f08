package ownerengine

import (
	"context"
	"fmt"
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
// Each level uploads as Outsource does — SetShardCells windows, the same
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

// BucketizedPSI runs the §6.6 protocol: PSI on the top level, then
// per-round expansion of common buckets' children, down to the leaves.
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
	frontier := make([]uint32, meta.sizes[top])
	for i := range frontier {
		frontier[i] = uint32(i)
	}
	for k := top; k >= 0; k-- {
		if len(frontier) == 0 {
			break
		}
		qid := o.newSession(fmt.Sprintf("bpsi-L%d", k)).qid
		table := bucketLevelTable(base, k)
		req := protocol.PSIRequest{Table: table, QueryID: qid, Group: o.view.Group, Cells: frontier}
		replies, err := o.callServers(ctx, 2, func(int) any { return req })
		if err != nil {
			return nil, err
		}
		outs := make([][]uint32, 2)
		for phi, r := range replies {
			rep, ok := r.(protocol.PSIReply)
			if !ok {
				return nil, fmt.Errorf("ownerengine: unexpected bucket PSI reply %T", r)
			}
			outs[phi] = rep.Out
			res.Stats.Server.Add(rep.Stats)
		}
		if len(outs[0]) != len(frontier) || len(outs[1]) != len(frontier) {
			return nil, fmt.Errorf("ownerengine: bucket PSI reply length mismatch at level %d", k)
		}
		res.Visited += uint64(len(frontier))
		res.Rounds++

		start := time.Now()
		var common []uint32
		for i := range frontier {
			if o.modEta.Reduce(uint64(outs[0][i])*uint64(outs[1][i])) == one {
				common = append(common, frontier[i])
			}
		}
		if k == 0 {
			for _, c := range common {
				res.Cells = append(res.Cells, uint64(c))
			}
			res.Stats.OwnerNS += time.Since(start).Nanoseconds()
			break
		}
		// Expand children of common buckets (§6.6 Step 3).
		childSize := uint32(meta.sizes[k-1])
		frontier = frontier[:0]
		for _, node := range common {
			lo := node * uint32(meta.fanout)
			hi := lo + uint32(meta.fanout)
			if hi > childSize {
				hi = childSize
			}
			for c := lo; c < hi; c++ {
				frontier = append(frontier, c)
			}
		}
		res.Stats.OwnerNS += time.Since(start).Nanoseconds()
	}
	res.Stats.Rounds = res.Rounds
	res.Stats.WallNS = time.Since(wall).Nanoseconds()
	return res, nil
}
