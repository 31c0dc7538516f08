// Benchmarks regenerating the paper's tables and figures as testing.B
// benches. Each family maps to one artifact of §8 (the experiment index
// is in internal/benchx and docs/OPERATIONS.md); cmd/prism-bench runs
// the same experiments at presentation scale.
//
// Default sizes are bench-friendly (64K-cell domains); the shapes — not
// the absolute numbers — are the reproduction target.
package prism_test

import (
	"context"
	"fmt"
	"testing"

	"prism/internal/baseline"
	"prism/internal/benchx"
	"prism/internal/prg"
)

const benchDomain = 1 << 16

// BenchmarkExp1Fig3 sweeps the Figure 3 operators across server thread
// counts (10 owners).
func BenchmarkExp1Fig3(b *testing.B) {
	sys, _, _, err := benchx.Build(benchx.SystemSpec{
		Owners: 10, Domain: benchDomain, AggCols: []string{"DT", "PK"}, Seed: "exp1",
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, threads := range []int{1, 2, 3, 4, 5} {
		sys.SetServerThreads(threads)
		for _, op := range benchx.Ops {
			col := "DT"
			if op == "PSI Max" || op == "PSI Median" {
				col = "PK"
			}
			b.Run(fmt.Sprintf("threads=%d/%s", threads, op), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := benchx.RunOp(ctx, sys, op, col); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable12MultiColumn times sum and max over 1-4 attributes.
func BenchmarkTable12MultiColumn(b *testing.B) {
	sys, _, _, err := benchx.Build(benchx.SystemSpec{
		Owners: 10, Domain: benchDomain,
		AggCols: []string{"PK", "LN", "SK", "DT"}, Seed: "table12",
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("Sum/attrs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchx.MultiColSum(ctx, sys, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("Max/attrs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchx.MultiColMax(ctx, sys, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp2Fig4Owners sweeps the owner count (Figure 4).
func BenchmarkExp2Fig4Owners(b *testing.B) {
	ctx := context.Background()
	for _, m := range []int{10, 20, 30, 40, 50} {
		sys, _, _, err := benchx.Build(benchx.SystemSpec{
			Owners: m, Domain: benchDomain, Seed: fmt.Sprintf("exp2-%d", m),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range []string{"PSI", "PSU", "PSI Sum"} {
			b.Run(fmt.Sprintf("owners=%d/%s", m, op), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := benchx.RunOp(ctx, sys, op, "DT"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExp3Table14OwnerTime reports owner-side result-construction
// time per operator as a custom metric (owner-ns/op).
func BenchmarkExp3Table14OwnerTime(b *testing.B) {
	sys, _, _, err := benchx.Build(benchx.SystemSpec{
		Owners: 10, Domain: benchDomain, Seed: "exp3",
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, op := range []string{"PSI", "PSI Count", "PSI Sum", "PSI Avg", "PSI Max", "PSU"} {
		b.Run(op, func(b *testing.B) {
			var ownerNS int64
			for i := 0; i < b.N; i++ {
				r, err := benchx.RunOp(ctx, sys, op, "DT")
				if err != nil {
					b.Fatal(err)
				}
				ownerNS += r.OwnerNS
			}
			b.ReportMetric(float64(ownerNS)/float64(b.N), "owner-ns/op")
		})
	}
}

// BenchmarkExp4Fig5Bucketization measures the traversal simulation per
// fill factor and reports the actual domain size as a metric.
func BenchmarkExp4Fig5Bucketization(b *testing.B) {
	for _, fill := range []float64{0.01, 0.001, 0.0001} {
		b.Run(fmt.Sprintf("fill=%g%%", fill*100), func(b *testing.B) {
			var actual uint64
			for i := 0; i < b.N; i++ {
				pts := benchx.Fig5(10_000_000, 10, []float64{fill}, "bench")
				actual = pts[0].ActualWith
			}
			b.ReportMetric(float64(actual), "actual-domain-cells")
		})
	}
}

// BenchmarkShareGeneration measures Phase 1 (§8.1's share-generation
// paragraph): building and splitting all Table-11 columns.
func BenchmarkShareGeneration(b *testing.B) {
	for _, verify := range []bool{false, true} {
		b.Run(fmt.Sprintf("verify=%v", verify), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, sg, err := benchx.Build(benchx.SystemSpec{
					Owners: 10, Domain: benchDomain, Verify: verify,
					AggCols: []string{"PK", "LN", "SK", "DT"},
					Seed:    fmt.Sprintf("sharegen-%d", i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sg.TotalNS())/1e6, "sharegen-ms")
			}
		})
	}
}

// BenchmarkTable13TwoOwnerPSI measures Prism's PSI at two owners (the
// configuration Table 13 compares against other systems).
func BenchmarkTable13TwoOwnerPSI(b *testing.B) {
	sys, _, _, err := benchx.Build(benchx.SystemSpec{
		Owners: 2, Domain: benchDomain, Seed: "table13",
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchx.RunOp(ctx, sys, "PSI", "DT"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable13NaiveBaseline measures the naive pairwise baseline's
// quadratic blowup for the same two-owner setting.
func BenchmarkTable13NaiveBaseline(b *testing.B) {
	rng := prg.New(prg.SeedFromString("naive-bench"))
	for _, n := range []int{512, 1024, 2048} {
		x := make([]uint64, n)
		y := make([]uint64, n)
		for i := range x {
			x[i] = rng.Uint64n(uint64(4 * n))
			y[i] = rng.Uint64n(uint64(4 * n))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.NaivePairwisePSI([][]uint64{x, y})
			}
		})
	}
}

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
