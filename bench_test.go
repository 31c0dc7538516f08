// The two testing.B benches no prism-bench experiment covers. The
// paper's tables and figures are cmd/prism-bench experiments
// (benchx.Experiments); the numbers a change is judged on come from
// benchmark/.
package prism_test

import (
	"context"
	"fmt"
	"testing"

	"prism/internal/benchx"
)

const benchDomain = 1 << 16

// BenchmarkVerificationOverhead quantifies the §5.2 verification cost
// relative to plain PSI (an ablation of the design's verify layer).
func BenchmarkVerificationOverhead(b *testing.B) {
	ctx := context.Background()
	for _, verify := range []bool{false, true} {
		sys, _, _, err := benchx.Build(benchx.SystemSpec{
			Owners: 10, Domain: benchDomain, Verify: verify, Seed: "vo",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("verify=%v", verify), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchx.RunOp(ctx, sys, "PSI", "DT"); err != nil {
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
	sys, _, _, err := benchx.Build(benchx.SystemSpec{
		Owners: 10, Domain: 1 << 14, Groups: 2, CommonKeys: 64,
		Verify: true, EncodeWire: true, Seed: "psimax64",
	})
	if err != nil {
		b.Fatal(err)
	}
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
