// The two testing.B benches no prism-bench experiment covers. The
// paper's tables and figures are cmd/prism-bench experiments
// (benchx.Experiments); the numbers a change is judged on come from
// benchmark/.
package prism_test

import (
	"context"
	"fmt"
	"testing"

	"prism"
	"prism/internal/prg"
	"prism/internal/workload"
)

const benchDomain = 1 << 16

// benchMaxValue bounds the generated aggregation values.
const benchMaxValue = 1000

// outsourced completes cfg (its Owners and the deployment knobs set)
// with a cells-cell integer domain and column DT, gives every owner a
// generated table — a tenth of the domain, commonKeys of it at every
// owner — and outsources it.
func outsourced(b *testing.B, cfg prism.Config, cells uint64, commonKeys int, seed string) *prism.System {
	b.Helper()
	data, err := workload.Generate(workload.Config{
		Owners:       cfg.Owners,
		DomainSize:   cells,
		KeysPerOwner: int(cells / 10),
		CommonKeys:   commonKeys,
		MaxValue:     benchMaxValue,
		Seed:         prg.SeedFromString(seed),
	})
	if err != nil {
		b.Fatal(err)
	}
	if cfg.Domain, err = prism.IntDomain(1, cells); err != nil {
		b.Fatal(err)
	}
	cfg.AggColumns = []string{"DT"}
	cfg.MaxAggValue = benchMaxValue * uint64(cfg.Owners+1)
	copy(cfg.Seed[:], seed)
	sys, err := prism.NewLocalSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	for j, d := range data {
		if err := sys.Owner(j).LoadCells(d.Cells, d.Aggs); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkVerificationOverhead quantifies the §5.2 verification cost
// relative to plain PSI (an ablation of the design's verify layer).
func BenchmarkVerificationOverhead(b *testing.B) {
	ctx := context.Background()
	for _, verify := range []bool{false, true} {
		sys := outsourced(b, prism.Config{Owners: 10, Verify: verify}, benchDomain, 4, "vo")
		b.Run(fmt.Sprintf("verify=%v", verify), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.PSI(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPSIMax64 times one max query at the repo benchmark's shape
// (benchmark/README.md: 10 owners, a tenth of the domain per owner, 64
// common keys, verification, every message a wire frame, two server
// groups) scaled down to 2^14 cells — the op the vector extreme round
// serves, sized so the rounds and not the PSI scan dominate.
func BenchmarkPSIMax64(b *testing.B) {
	sys := outsourced(b, prism.Config{Owners: 10, Groups: 2, Verify: true}, 1<<14, 64, "psimax64")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.PSIMax(ctx, "DT")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerCell) != 64 {
			b.Fatalf("max answered %d cells, want 64", len(res.PerCell))
		}
	}
}
