package benchx

import (
	"context"
	"fmt"
	"time"

	"prism/internal/baseline"
	"prism/internal/prg"
	"prism/internal/report"
	"prism/internal/workload"
)

// Scale bundles the experiment-wide size knobs.
type Scale struct {
	// Domains are the OK domain sizes to sweep (paper: 5M and 20M).
	Domains []uint64
	// Owners is the default owner count (paper: 10 for Exp 1).
	Owners int
	// OwnersSweep for Exp 2 (paper: 10..50).
	OwnersSweep []int
	// Threads for Exp 1 (paper: 1..5).
	Threads []int
	// DiskDir enables disk-backed fetch timing for Exp 1.
	DiskDir string
	// Fig5Leaves / Fig5Fanout (paper: 100M, 10).
	Fig5Leaves uint64
	Fig5Fanout int
	// Table13Keys is the per-owner set size for the 2-owner comparison.
	Table13Keys int
}

// QuickScale is a laptop-friendly default; PaperScale matches §8.1.
func QuickScale() Scale {
	return Scale{
		Domains:     []uint64{250_000, 1_000_000},
		Owners:      10,
		OwnersSweep: []int{10, 20, 30, 40, 50},
		Threads:     []int{1, 2, 3, 4, 5},
		Fig5Leaves:  100_000_000,
		Fig5Fanout:  10,
		Table13Keys: 4096,
	}
}

// PaperScale reproduces the paper's exact sizes (needs ~16 GB RAM and
// patience).
func PaperScale() Scale {
	s := QuickScale()
	s.Domains = []uint64{5_000_000, 20_000_000}
	s.Table13Keys = 16384
	return s
}

// Exp1 reproduces Figure 3: per-operator time vs server thread count at
// each domain size, with the data-fetch series when DiskDir is set.
func Exp1(ctx context.Context, sc Scale) ([]*report.Table, error) {
	var tables []*report.Table
	for _, domain := range sc.Domains {
		tb := report.New(
			fmt.Sprintf("Exp 1 / Figure 3 — %s OK domain, %d owners", human(domain), sc.Owners),
			"threads", "op", "total(s)", "server-compute(s)", "data-fetch", "owner(s)")
		sys, _, _, err := Build(SystemSpec{
			Owners: sc.Owners, Domain: domain, DiskDir: sc.DiskDir,
			AggCols: []string{"DT", "PK"},
		})
		if err != nil {
			return nil, err
		}
		for _, threads := range sc.Threads {
			sys.SetServerThreads(threads)
			for _, op := range Ops {
				col := "DT"
				if op == "PSI Max" || op == "PSI Median" {
					col = "PK" // the paper computes max/median over PK
				}
				r, err := RunOp(ctx, sys, op, col)
				if err != nil {
					return nil, err
				}
				tb.Add(threads, op, report.Seconds(r.WallNS), report.Seconds(r.ServerComputeNS),
					report.Dur(r.ServerFetchNS), report.Seconds(r.OwnerNS))
			}
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// Table12 reproduces the multi-column aggregation table: sum and max
// over 1-4 attributes at each domain size.
func Table12(ctx context.Context, sc Scale) ([]*report.Table, error) {
	tb := report.New("Table 12 — multi-column aggregation (seconds)",
		"domain", "op", "1 attr", "2 attrs", "3 attrs", "4 attrs")
	for _, domain := range sc.Domains {
		sys, _, _, err := Build(SystemSpec{
			Owners: sc.Owners, Domain: domain, AggCols: workload.Columns,
		})
		if err != nil {
			return nil, err
		}
		var sumRow, maxRow []any
		sumRow = append(sumRow, human(domain), "Sum")
		maxRow = append(maxRow, human(domain), "Max")
		for n := 1; n <= 4; n++ {
			r, err := MultiColSum(ctx, sys, n)
			if err != nil {
				return nil, err
			}
			sumRow = append(sumRow, report.Seconds(r.WallNS))
		}
		for n := 1; n <= 4; n++ {
			r, err := MultiColMax(ctx, sys, n)
			if err != nil {
				return nil, err
			}
			maxRow = append(maxRow, report.Seconds(r.WallNS))
		}
		tb.Add(sumRow...)
		tb.Add(maxRow...)
	}
	return []*report.Table{tb}, nil
}

// Exp2 reproduces Figure 4: server processing time vs number of owners.
func Exp2(ctx context.Context, sc Scale) ([]*report.Table, error) {
	var tables []*report.Table
	for _, domain := range sc.Domains {
		tb := report.New(
			fmt.Sprintf("Exp 2 / Figure 4 — %s OK domain", human(domain)),
			"owners", "op", "total(s)", "server-compute(s)")
		for _, m := range sc.OwnersSweep {
			sys, _, _, err := Build(SystemSpec{Owners: m, Domain: domain})
			if err != nil {
				return nil, err
			}
			for _, op := range []string{"PSI", "PSU", "PSI Count", "PSI Sum"} {
				r, err := RunOp(ctx, sys, op, "DT")
				if err != nil {
					return nil, err
				}
				tb.Add(m, op, report.Seconds(r.WallNS), report.Seconds(r.ServerComputeNS))
			}
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// Exp3 reproduces Table 14: DB-owner processing time in result
// construction per operator and domain size.
func Exp3(ctx context.Context, sc Scale) ([]*report.Table, error) {
	tb := report.New("Exp 3 / Table 14 — DB owner result-construction time (seconds)",
		append([]string{"op"}, humanAll(sc.Domains)...)...)
	results := make(map[string][]string)
	order := []string{"PSI", "PSI Count", "PSI Sum", "PSI Avg", "PSI Max", "PSU"}
	for _, domain := range sc.Domains {
		sys, _, _, err := Build(SystemSpec{Owners: sc.Owners, Domain: domain})
		if err != nil {
			return nil, err
		}
		for _, op := range order {
			r, err := RunOp(ctx, sys, op, "DT")
			if err != nil {
				return nil, err
			}
			results[op] = append(results[op], report.Seconds(r.OwnerNS))
		}
	}
	for _, op := range order {
		row := []any{op}
		for _, v := range results[op] {
			row = append(row, v)
		}
		tb.Add(row...)
	}
	return []*report.Table{tb}, nil
}

// Exp4 reproduces Figure 5: actual domain size with and without
// bucketization across fill factors.
func Exp4(_ context.Context, sc Scale) ([]*report.Table, error) {
	tb := report.New(
		fmt.Sprintf("Exp 4 / Figure 5 — bucketization, %s leaves, fanout %d",
			human(sc.Fig5Leaves), sc.Fig5Fanout),
		"fill-factor(%)", "actual-with-bucketization", "actual-without", "tree-nodes")
	fills := []float64{1, 0.1, 0.01, 0.001, 0.0001}
	for _, p := range Fig5(sc.Fig5Leaves, sc.Fig5Fanout, fills, "exp4") {
		tb.Add(fmt.Sprintf("%g", p.FillPercent), p.ActualWith, p.ActualFlat, p.TotalNodes)
	}
	return []*report.Table{tb}, nil
}

// ShareGen reproduces the §8.1 share-generation measurement: per-owner
// time to build and split the Table-11 columns, with and without the
// verification copies.
func ShareGen(ctx context.Context, sc Scale) ([]*report.Table, error) {
	tb := report.New("§8.1 — share generation time (seconds, all owners)",
		"domain", "verify-columns", "build(s)", "split(s)", "upload(s)", "total(s)")
	for _, domain := range sc.Domains {
		for _, verify := range []bool{false, true} {
			spec := SystemSpec{
				Owners: sc.Owners, Domain: domain, Verify: verify,
				AggCols: workload.Columns,
			}
			_, _, sg, err := Build(spec)
			if err != nil {
				return nil, err
			}
			tb.Add(human(domain), verify, report.Seconds(sg.BuildNS), report.Seconds(sg.SplitNS),
				report.Seconds(sg.UploadNS), report.Seconds(sg.TotalNS()))
		}
	}
	return []*report.Table{tb}, nil
}

// FanoutAblation extends Exp 4 beyond the paper: how the bucket-tree
// fanout (the paper fixes 10) trades off against the actual domain size
// at a given fill factor — the paper's "open problem" of choosing an
// optimal bucketization.
func FanoutAblation(_ context.Context, sc Scale) ([]*report.Table, error) {
	tb := report.New(
		fmt.Sprintf("Ablation — bucket-tree fanout at %s leaves", human(sc.Fig5Leaves)),
		"fanout", "fill 1%", "fill 0.1%", "fill 0.01%")
	for _, fanout := range []int{2, 4, 8, 10, 16, 32, 64} {
		row := []any{fanout}
		for _, fill := range []float64{0.01, 0.001, 0.0001} {
			pts := Fig5(sc.Fig5Leaves, fanout, []float64{fill}, "fanout-ablation")
			row = append(row, pts[0].ActualWith)
		}
		tb.Add(row...)
	}
	return []*report.Table{tb}, nil
}

// quoted numbers from the paper's Table 13 (taken, as the paper itself
// does, from the respective publications).
type quotedSystem struct {
	name       string
	ops        string
	verifiable string
	scale      string
	serverComm string
	complexity string
}

var table13Quoted = []quotedSystem{
	{"[39] & [45]", "PSI", "no", "N/A", "N/A", "O(nm)"},
	{"[51]", "PSI", "no", "32768 (~50 m)", "N/A", "O(αmn)"},
	{"[3]", "PSI", "no", "1 M (~2 h)", "N/A", "O(nm)"},
	{"[2]", "PSI", "yes", "32768 (~16 m)", "N/A", "O(mn²)"},
	{"[37]", "PSI", "yes", "1 B (~10 m)", "N/A", "O(mn) (leaks size)"},
	{"[38]", "PSI", "no", "1000 (~9 m)", "N/A", "O(nm)"},
	{"Jana [5]", "PSI, PSU, agg", "no", "1 M (~1 h)", "yes", "O(nm)"},
	{"SMCQL [6]", "PSI via join", "no", ">23 M (~23 h)", "yes", "N/A"},
	{"Sharemind [8]", "PSI via join", "no", "30000 (>2 h)", "yes", "O(nm)"},
	{"Conclave [54]", "PSI via join", "no", "4 M (8 m)", "yes", "N/A (trusted party)"},
}

// Table13 regenerates the comparison table: quoted numbers for the
// closed systems (exactly as the paper reports them) plus measured
// Prism and measured naive-pairwise baselines at 2 owners.
func Table13(ctx context.Context, sc Scale) ([]*report.Table, error) {
	tb := report.New("Table 13 — comparison at 2 DB owners",
		"system", "operations", "verification", "reported scale (time)", "server-comm", "complexity")
	for _, q := range table13Quoted {
		tb.Add(q.name, q.ops, q.verifiable, q.scale, q.serverComm, q.complexity)
	}

	// Measured Prism: 2 owners over the largest configured domain.
	domain := sc.Domains[len(sc.Domains)-1]
	sys, _, _, err := Build(SystemSpec{Owners: 2, Domain: domain, KeysPerOwner: sc.Table13Keys})
	if err != nil {
		return nil, err
	}
	r, err := RunOp(ctx, sys, "PSI", "DT")
	if err != nil {
		return nil, err
	}
	tb.Add("Prism (this repo, measured)", "PSI, PSU, agg", "yes",
		fmt.Sprintf("%s (%.2f s)", human(domain), float64(r.WallNS)/1e9), "no", "O(mX)")

	// Measured naive pairwise baseline at a feasible n, with the
	// quadratic cost made explicit.
	nb := report.New("Table 13 (cont.) — naive pairwise-PSI baseline, measured",
		"set size n", "comparisons", "time(s)", "scaling")
	rng := prg.New(prg.SeedFromString("table13"))
	for _, n := range []int{sc.Table13Keys / 4, sc.Table13Keys / 2, sc.Table13Keys} {
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64n(uint64(4 * n))
			b[i] = rng.Uint64n(uint64(4 * n))
		}
		start := time.Now()
		_, comparisons := baseline.NaivePairwisePSI([][]uint64{a, b})
		el := time.Since(start)
		nb.Add(n, comparisons, fmt.Sprintf("%.3f", el.Seconds()), "O(n²) per owner pair")
	}
	return []*report.Table{tb, nb}, nil
}

func human(n uint64) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprint(n)
	}
}

func humanAll(ns []uint64) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = human(n)
	}
	return out
}
