package benchx

import (
	"context"
	"errors"
	"fmt"
	"time"

	"prism"
	"prism/internal/baseline"
	"prism/internal/prg"
	"prism/internal/report"
	"prism/internal/telemetry"
	"prism/internal/transport"
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
	// SweepQueries is how many mixed queries each point of a shape sweep
	// (domainscale, memscale, groupscale) runs (0 → 24).
	SweepQueries int
	// ShardCells is the shard size domainscale and memscale compare
	// against the monolithic mode (0 → 65536 cells).
	ShardCells uint64
}

func (sc Scale) sweepQueries() int {
	if sc.SweepQueries <= 0 {
		return 24
	}
	return sc.SweepQueries
}

func (sc Scale) shardCells() uint64 {
	if sc.ShardCells == 0 {
		return 1 << 16
	}
	return sc.ShardCells
}

// QuickScale is a laptop-friendly default; PaperScale matches §8.1.
func QuickScale() Scale {
	return Scale{
		Domains:      []uint64{250_000, 1_000_000},
		Owners:       10,
		OwnersSweep:  []int{10, 20, 30, 40, 50},
		Threads:      []int{1, 2, 3, 4, 5},
		Fig5Leaves:   100_000_000,
		Fig5Fanout:   10,
		Table13Keys:  4096,
		SweepQueries: 48,
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

// sweepMix is the operator mix every shape sweep cycles through: each
// O(b) exchange shape — stored-order PSI vectors, permuted count
// vectors, and the three-server aggregation round with its O(b) selector
// uploads — so every fetch path (window, gather, aggregation) is on the
// measured path.
var sweepMix = []prism.Request{
	{Op: prism.OpPSI},
	{Op: prism.OpPSICount},
	{Op: prism.OpPSISum, Cols: []string{"DT"}},
}

// sweepInflight is the scheduler bound every sweep point runs under.
const sweepInflight = 8

// sweepPoint is what runPoint measured on one deployment of a sweep.
type sweepPoint struct {
	outFrame, outHeld int64 // peak wire frame / server-held bytes while outsourcing
	frame, held       int64 // the same peaks over the query batch
	wall              time.Duration
	cells             int64 // cells-processed counter delta over the batch
	ownerNS           int64 // owner-side time summed over the batch
	fps               []string
	result            string // the "results" cell: "baseline", or "match" against base
}

func (p *sweepPoint) qps() float64 { return float64(len(p.fps)) / p.wall.Seconds() }

// runPoint is the one skeleton of the shape sweeps: build and outsource
// the deployment spec describes, run nq queries cycling sweepMix through
// the scheduler, and fail on any query error or on any answer whose
// fingerprint differs from base's (nil for a sweep's first point). When
// the batch fails the point is still returned with its outsourcing
// peaks, so a caller can tell a query-time frame overflow from one
// during the build (nil point).
func runPoint(ctx context.Context, spec SystemSpec, nq int, base *sweepPoint) (*sweepPoint, error) {
	spec.MaxInflight = sweepInflight
	sys, _, _, err := Build(spec)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	p := &sweepPoint{outFrame: sys.PeakFrameBytes(), outHeld: sys.PeakServerHeldBytes(), result: "baseline"}
	if base != nil {
		p.result = "match"
	}
	sys.ResetPeakFrame()
	sys.ResetServerHeldPeaks()

	reqs := make([]prism.Request, nq)
	for i := range reqs {
		reqs[i] = sweepMix[i%len(sweepMix)]
	}
	cells0 := cellsProcessed.Value()
	start := time.Now()
	resps := sys.QueryBatch(ctx, reqs)
	p.wall = time.Since(start)
	p.cells = cellsProcessed.Value() - cells0
	p.frame, p.held = sys.PeakFrameBytes(), sys.PeakServerHeldBytes()

	p.fps = make([]string, nq)
	for i, r := range resps {
		if r.Err != nil {
			return p, fmt.Errorf("query %d (%v) failed: %w", i, r.Op, r.Err)
		}
		p.fps[i] = fingerprint(r.Result)
		p.ownerNS += r.Result.Stats.OwnerNS
		if base != nil && p.fps[i] != base.fps[i] {
			return p, fmt.Errorf("query %d (%v) result diverged from the sweep's first point", i, r.Op)
		}
	}
	return p, nil
}

// DomainScale measures how the sharded data plane scales with domain
// size: peak frame bytes during outsourcing and querying plus sustained
// queries/sec, for the monolithic wire mode vs sharded exchanges, at
// each configured domain size. The system runs with EncodeWire so every
// message really is encoded into a wire frame and measured — and subject
// to the transport frame cap: a monolithic configuration whose frames exceed
// transport.FrameLimit() lands in the table as a "frame overflow" row
// instead of aborting the experiment, because that failure is exactly
// the wall sharding removes. The two modes' answers are
// fingerprint-compared per domain.
func DomainScale(ctx context.Context, sc Scale) ([]*report.Table, error) {
	shard, nq := sc.shardCells(), sc.sweepQueries()
	tb := report.New(
		fmt.Sprintf("Domain scale — %d owners, %d mixed queries per point, %d in flight, shard %s cells",
			sc.Owners, nq, sweepInflight, human(shard)),
		"domain", "wire mode", "outsource peak frame", "query peak frame", "queries/sec", "wall(s)")

	for _, domain := range sc.Domains {
		var base *sweepPoint
		for _, mode := range []struct {
			name  string
			cells uint64
		}{
			{"monolithic", 0},
			{"sharded", shard},
		} {
			p, err := runPoint(ctx, SystemSpec{
				Owners: sc.Owners, Domain: domain,
				ShardCells: mode.cells, EncodeWire: true,
			}, nq, base)
			switch {
			case errors.Is(err, transport.ErrFrameTooLarge) && p == nil:
				tb.Add(human(domain), mode.name, "FRAME OVERFLOW", "-", "-", "-")
			case errors.Is(err, transport.ErrFrameTooLarge):
				tb.Add(human(domain), mode.name, humanBytes(p.outFrame), "FRAME OVERFLOW", "-", "-")
			case err != nil:
				return nil, fmt.Errorf("benchx: domainscale %s @%s: %w", mode.name, human(domain), err)
			default:
				tb.Add(human(domain), mode.name, humanBytes(p.outFrame), humanBytes(p.frame),
					fmt.Sprintf("%.1f", p.qps()), report.Seconds(p.wall.Nanoseconds()))
				if base == nil {
					base = p
				}
			}
		}
	}
	return []*report.Table{tb}, nil
}

// MemScale measures how server resident memory scales with domain size:
// peak column bytes held during outsourcing and during a mixed query
// load, plus sustained queries/sec, comparing monolithic in-memory
// serving against the sharded chunked segment store (windows streamed
// straight to disk on upload, chunk-granular fetches plus a bounded
// hot-chunk cache on the query path). The residency gauge counts the
// column bytes the engines actually hold — pending upload assemblies,
// registered in-memory tables and cached chunks — so the contrast is
// O(b · columns · owners) for in-memory mode versus O(chunk + cache
// budget) for the segment store, at the same results: the two modes'
// response fingerprints are compared per domain and any divergence fails
// the experiment.
func MemScale(ctx context.Context, sc Scale) ([]*report.Table, error) {
	shard, nq := sc.shardCells(), sc.sweepQueries()
	budget := 64 * 2 * shard // 64 uint16 chunks of hot-cache headroom
	tb := report.New(
		fmt.Sprintf("Memory scale — %d owners, %d mixed queries per point, %d in flight, shard/chunk %s cells, cache budget %s",
			sc.Owners, nq, sweepInflight, human(shard), humanBytes(int64(budget))),
		"domain", "mode", "outsource peak resident", "query peak resident", "queries/sec", "cells/sec", "wall(s)", "results")

	for _, domain := range sc.Domains {
		var base *sweepPoint
		for _, mode := range []struct {
			name string
			disk bool
		}{
			{"monolithic/RAM", false},
			{"sharded/chunked disk", true},
		} {
			spec := SystemSpec{Owners: sc.Owners, Domain: domain, Seed: "memscale"}
			if mode.disk {
				spec.ShardCells = shard
				spec.ChunkCells = shard // whole-chunk upload windows, minimal query fetches
				spec.HotChunks = budget
				spec.DiskDir = fmt.Sprintf("%s/memscale-%s", sc.DiskDir, human(domain))
			}
			p, err := runPoint(ctx, spec, nq, base)
			if err != nil {
				return nil, fmt.Errorf("benchx: memscale %s @%s: %w", mode.name, human(domain), err)
			}
			tb.Add(human(domain), mode.name, humanBytes(p.outHeld), humanBytes(p.held),
				fmt.Sprintf("%.1f", p.qps()), cellsRate(p.cells, p.wall),
				report.Seconds(p.wall.Nanoseconds()), p.result)
			if base == nil {
				base = p
			}
		}
	}
	return []*report.Table{tb}, nil
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
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

// groupScaleGroups is the group-count sweep of the groupscale
// experiment.
var groupScaleGroups = []int{1, 2, 4}

// GroupScale measures multi-group domain partitioning: sustained mixed
// queries/sec at 1, 2 and 4 server groups over one fixed domain, with
// every server's worker pool pinned to one thread so the sweep models
// adding server hardware rather than oversubscribing one box. Messages
// are frame-encoded to measure the peak wire frame (per-group windows
// shrink as groups split the domain, so the peak must not grow), and
// the owner-side result-merge cost is reported per query. Every
// multi-group point's response fingerprints are compared against the
// single-group baseline; any divergence fails the experiment.
func GroupScale(ctx context.Context, sc Scale) ([]*report.Table, error) {
	domain := sc.Domains[len(sc.Domains)-1]
	nq := sc.sweepQueries()
	tb := report.New(
		fmt.Sprintf("Group scale — %d owners, %s-cell domain, %d mixed queries per point, %d in flight, 1 thread per server",
			sc.Owners, human(domain), nq, sweepInflight),
		"groups", "queries/sec", "cells/sec", "speedup", "peak frame", "owner merge(ms/query)", "results")

	var base *sweepPoint
	for _, groups := range groupScaleGroups {
		p, err := runPoint(ctx, SystemSpec{
			Owners:     sc.Owners,
			Domain:     domain,
			Groups:     groups,
			Threads:    1,
			EncodeWire: true,
			Seed:       "groupscale",
		}, nq, base)
		if err != nil {
			return nil, fmt.Errorf("benchx: groupscale @%d groups: %w", groups, err)
		}
		speedup := 1.0
		if base != nil {
			// Per-group windows are sub-ranges of the single-group
			// window, so splitting the domain must never grow a frame.
			if p.frame > base.frame {
				return nil, fmt.Errorf("benchx: groupscale @%d groups: peak frame %s exceeds the single-group peak %s",
					groups, humanBytes(p.frame), humanBytes(base.frame))
			}
			speedup = p.qps() / base.qps()
		}
		tb.Add(fmt.Sprint(groups),
			fmt.Sprintf("%.1f", p.qps()),
			cellsRate(p.cells, p.wall),
			fmt.Sprintf("%.2f×", speedup),
			humanBytes(p.frame),
			fmt.Sprintf("%.2f", float64(p.ownerNS)/float64(nq)/1e6),
			p.result)
		if base == nil {
			base = p
		}
	}
	return []*report.Table{tb}, nil
}

// cellsProcessed is the server engines' cells-processed counter; the
// registry dedupes by name, so this is the same counter the engines
// bump and benchx can read throughput deltas off it.
var cellsProcessed = telemetry.NewCounter(telemetry.MetricCellsProcessed)

// cellsRate formats a cells/sec figure from a counter delta over one
// measured batch.
func cellsRate(delta int64, wall time.Duration) string {
	if delta <= 0 {
		return "-"
	}
	r := float64(delta) / wall.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fK", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}
