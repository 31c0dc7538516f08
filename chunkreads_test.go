package prism

import (
	"context"
	"fmt"
	"testing"

	"prism/internal/telemetry"
)

// TestPermutedRoundReadsEachChunkOnce pins the store reads of a permuted
// round on the cache-off tier — disk-nocache, 3 owners, one group,
// 1,024-cell chunks and windows — at one read of every chunk it needs:
// a verified count reads each owner's χ and χ̄ chunks once on S0 and on
// S1, 2 × 3 × 2 × b/1,024 chunk reads, and a PSU count, which has no χ̄
// side, half that, however many windows the round has. Gathering each
// window's cells from the chunks they lie in reads every chunk once per
// window instead: 192 and 3,072 for the verified count at these sizes.
// The counts are exact, so no timing noise can blur them.
func TestPermutedRoundReadsEachChunkOnce(t *testing.T) {
	reads := telemetry.NewCounter(telemetry.MetricStoreChunkReads)
	ctx := context.Background()
	for _, b := range []uint64{4096, 16384} {
		t.Run(fmt.Sprintf("b=%d", b), func(t *testing.T) {
			sys := shape{storage: "disk-nocache", shard: 1024, groups: 1, owners: 3, b: b}.system(t)
			orc := loadPlanted(t, sys, plantedCells(sys, 5), 37)
			chunks := int64(b / 1024)
			for _, q := range []struct {
				name string
				run  func(context.Context) (*CountResult, error)
				want int
				cols int64
			}{
				{"count", sys.PSICount, len(orc.cells), 2},
				{"psucount", sys.PSUCount, len(orc.union), 1},
			} {
				before := reads.Value()
				res, err := q.run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				if res.Count != q.want {
					t.Errorf("%s = %d, want %d", q.name, res.Count, q.want)
				}
				if got, want := reads.Value()-before, 2*3*q.cols*chunks; got != want {
					t.Errorf("%s read %d chunks, want %d (2 servers × 3 owners × %d columns × %d chunks)", q.name, got, want, q.cols, chunks)
				}
			}
		})
	}
}
