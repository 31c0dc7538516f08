package prism

import (
	"context"
	"fmt"
	"testing"

	"prism/internal/telemetry"
)

// TestPermutedRoundReadsEachChunkOnce pins the store reads of permuted
// rounds on disk — disk-nocache, 3 owners, one group,
// 1,024-cell chunks and windows — at one read of every chunk per table
// epoch. The first verified count builds the epoch's χ and χ̄ owner sums
// on S0 and on S1, reading each owner's χ and χ̄ chunks once: 2 × 3 × 2 ×
// b/1,024 chunk reads, however many windows the round has. The PSU count
// that follows gathers from the χ sum the count built and reads none.
// An update compacted into the base starts a new epoch, and the next
// count reads every χ and χ̄ chunk once more. An update left pending
// then costs the first count of the epoch the chunks its merge holds —
// on S0 and S1, each owner's χ and χ̄ chunk under the updated cell — and
// later counts nothing. An update pending when an epoch starts costs
// its first count the epoch and nothing more: the build reads the
// chunks the merge needs into the epoch's cache. The counts are exact,
// so no timing noise can blur them.
func TestPermutedRoundReadsEachChunkOnce(t *testing.T) {
	reads := telemetry.NewCounter(telemetry.MetricStoreChunkReads)
	ctx := context.Background()
	for _, b := range []uint64{4096, 16384} {
		t.Run(fmt.Sprintf("b=%d", b), func(t *testing.T) {
			sys := shape{storage: "disk-nocache", shard: 1024, groups: 1, owners: 3, b: b}.system(t)
			orc := loadPlanted(t, sys, plantedCells(sys, 5), 37)
			epoch := 2 * 3 * 2 * int64(b/1024) // servers × owners × χ sides × chunks
			run := func(name string, q func(context.Context) (*CountResult, error), want int, wantReads int64) {
				t.Helper()
				before := reads.Value()
				res, err := q(ctx)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Count != want {
					t.Errorf("%s = %d, want %d", name, res.Count, want)
				}
				if got := reads.Value() - before; got != wantReads {
					t.Errorf("%s read %d chunks, want %d", name, got, wantReads)
				}
			}
			run("count", sys.PSICount, len(orc.cells), epoch)
			run("psucount", sys.PSUCount, len(orc.union), 0)
			// One more tuple at a common cell leaves both sets as they are.
			cell := orc.cells[0]
			if _, err := sys.Owner(0).UpdateCells(ctx, []uint64{cell}, map[string][]uint64{"v": {7}}, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := sys.CompactTables(); err != nil {
				t.Fatal(err)
			}
			run("count after compaction", sys.PSICount, len(orc.cells), epoch)
			if _, err := sys.Owner(0).UpdateCells(ctx, []uint64{cell}, map[string][]uint64{"v": {9}}, nil, nil); err != nil {
				t.Fatal(err)
			}
			run("count with a pending update", sys.PSICount, len(orc.cells), 2*3*2) // servers × owners × χ sides
			run("repeated count", sys.PSICount, len(orc.cells), 0)
			run("third count", sys.PSICount, len(orc.cells), 0)
			if err := sys.CompactTables(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Owner(0).UpdateCells(ctx, []uint64{cell}, map[string][]uint64{"v": {11}}, nil, nil); err != nil {
				t.Fatal(err)
			}
			run("count over an update pending since the compaction", sys.PSICount, len(orc.cells), epoch)
		})
	}
}
