package prism

import (
	"context"
	"fmt"

	"prism/internal/bucket"
)

// BucketPSIResult is a bucketized PSI answer (§6.6): the intersection
// plus the traversal cost ("actual domain size", the Figure 5 metric).
type BucketPSIResult struct {
	Cells   []uint64
	Values  []string
	Visited uint64 // cells PSI actually executed on
	Flat    uint64 // cells a non-bucketized PSI would touch
	Rounds  int
	Stats   QueryStats
}

// OutsourceBucketTrees builds each owner's bucket tree over its χ bitmap
// and outsources every level as additive shares (§6.6 Steps 1a-1b).
func (s *System) OutsourceBucketTrees(ctx context.Context, fanout int) error {
	b := s.cfg.Domain.Size()
	for _, o := range s.owners {
		d := o.eng.Data()
		if d == nil {
			return fmt.Errorf("prism: owner %d has no data loaded", o.idx)
		}
		tree, err := bucket.BuildFromCells(b, d.Cells, fanout)
		if err != nil {
			return err
		}
		if err := o.eng.OutsourceBucketTree(ctx, tableName+"-bt", tree); err != nil {
			return err
		}
	}
	return nil
}

// BucketizedPSI runs the level-by-level PSI of §6.6. Requires a prior
// OutsourceBucketTrees call.
func (s *System) BucketizedPSI(ctx context.Context) (*BucketPSIResult, error) {
	ow, err := s.nextQuerier()
	if err != nil {
		return nil, err
	}
	res, err := ow.eng.BucketizedPSI(ctx, tableName+"-bt")
	if err != nil {
		return nil, err
	}
	out := &BucketPSIResult{
		Cells:   res.Cells,
		Visited: res.Visited,
		Flat:    s.cfg.Domain.Size(),
		Rounds:  res.Rounds,
		Stats:   fromEngineStats(res.Stats),
	}
	for _, c := range res.Cells {
		out.Values = append(out.Values, s.cfg.Domain.Label(c))
	}
	return out, nil
}
