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
	// Inflight is the concurrency sweep for the throughput experiment:
	// each entry is a scheduler in-flight bound.
	Inflight []int
	// ThroughputQueries is how many queries each throughput point runs.
	ThroughputQueries int
	// LinkRTT simulates the owner↔server network round trip in the TCP
	// throughput experiment (the paper's deployment runs entities on
	// separate machines; loopback alone hides the wire wait that
	// head-of-line blocking turns into dead time). 0 = raw loopback.
	LinkRTT time.Duration
	// ShardCells is the shard size the domainscale experiment compares
	// against the monolithic wire mode (0 → 65536 cells).
	ShardCells uint64
	// GatewayClients is the concurrent front-client sweep for the
	// gatewayscale experiment.
	GatewayClients []int
}

// QuickScale is a laptop-friendly default; PaperScale matches §8.1.
func QuickScale() Scale {
	return Scale{
		Domains:           []uint64{250_000, 1_000_000},
		Owners:            10,
		OwnersSweep:       []int{10, 20, 30, 40, 50},
		Threads:           []int{1, 2, 3, 4, 5},
		Fig5Leaves:        100_000_000,
		Fig5Fanout:        10,
		Table13Keys:       4096,
		Inflight:          []int{1, 2, 4, 8, 16},
		ThroughputQueries: 48,
		LinkRTT:           2 * time.Millisecond, // intra-DC owner↔server link
		GatewayClients:    []int{250, 1000},
	}
}

// PaperScale reproduces the paper's exact sizes (needs ~16 GB RAM and
// patience).
func PaperScale() Scale {
	s := QuickScale()
	s.Domains = []uint64{5_000_000, 20_000_000}
	s.Table13Keys = 16384
	s.GatewayClients = []int{1000, 4000, 10000}
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
func Exp4(sc Scale) []*report.Table {
	tb := report.New(
		fmt.Sprintf("Exp 4 / Figure 5 — bucketization, %s leaves, fanout %d",
			human(sc.Fig5Leaves), sc.Fig5Fanout),
		"fill-factor(%)", "actual-with-bucketization", "actual-without", "tree-nodes")
	fills := []float64{1, 0.1, 0.01, 0.001, 0.0001}
	for _, p := range Fig5(sc.Fig5Leaves, sc.Fig5Fanout, fills, "exp4") {
		tb.Add(fmt.Sprintf("%g", p.FillPercent), p.ActualWith, p.ActualFlat, p.TotalNodes)
	}
	return []*report.Table{tb}
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
func FanoutAblation(sc Scale) []*report.Table {
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
	return []*report.Table{tb}
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

// throughputMix is the operator mix each throughput point cycles
// through — the service-style workload of concurrent PSI/PSU/count/sum
// traffic, routed round-robin across owners by the scheduler.
var throughputMix = []prism.Request{
	{Op: prism.OpPSI},
	{Op: prism.OpPSU},
	{Op: prism.OpPSICount},
	{Op: prism.OpPSISum, Cols: []string{"DT"}},
}

// Throughput measures sustained queries/sec against the number of
// queries in flight (the scheduler's concurrency bound). This is the
// production-traffic experiment the paper does not run: it answers how
// the three-server deployment behaves under many simultaneous queriers
// rather than one looping querier.
func Throughput(ctx context.Context, sc Scale) ([]*report.Table, error) {
	domain := sc.Domains[0]
	nq := sc.ThroughputQueries
	if nq <= 0 {
		nq = 48
	}
	inflight := sc.Inflight
	if len(inflight) == 0 {
		inflight = []int{1, 2, 4, 8, 16}
	}
	tb := report.New(
		fmt.Sprintf("Throughput — %s OK domain, %d owners, %d mixed queries per point",
			human(domain), sc.Owners, nq),
		"in-flight", "queries/sec", "wall(s)", "mean-latency", "errors")
	sys, _, _, err := Build(SystemSpec{Owners: sc.Owners, Domain: domain})
	if err != nil {
		return nil, err
	}
	reqs := make([]prism.Request, nq)
	for i := range reqs {
		reqs[i] = throughputMix[i%len(throughputMix)]
	}
	for _, k := range inflight {
		sys.SetMaxInflight(k)
		start := time.Now()
		resps := sys.QueryBatch(ctx, reqs)
		wall := time.Since(start)
		var lat int64
		nerr := 0
		for _, r := range resps {
			if r.Err != nil {
				nerr++
				continue
			}
			lat += r.Result.Stats.WallNS
		}
		okCount := nq - nerr
		if okCount == 0 {
			return nil, fmt.Errorf("benchx: throughput point %d: every query failed (first: %v)", k, resps[0].Err)
		}
		tb.Add(k, fmt.Sprintf("%.1f", float64(okCount)/wall.Seconds()),
			report.Seconds(wall.Nanoseconds()), report.Dur(lat/int64(okCount)), nerr)
	}
	return []*report.Table{tb}, nil
}

// domainScaleMix is the operator mix of the domainscale experiment:
// every O(b) exchange shape — stored-order PSI vectors, permuted count
// vectors, and the three-server aggregation round with its O(b)
// selector uploads.
var domainScaleMix = []prism.Request{
	{Op: prism.OpPSI},
	{Op: prism.OpPSICount},
	{Op: prism.OpPSISum, Cols: []string{"DT"}},
}

// DomainScale measures how the sharded data plane scales with domain
// size: peak frame bytes during outsourcing and querying plus sustained
// queries/sec, for the monolithic wire mode vs sharded exchanges, at
// each configured domain size. The system runs with EncodeWire so every
// message really is encoded into a wire frame and measured — and subject
// to the transport frame cap: a monolithic configuration whose frames exceed
// transport.FrameLimit() lands in the table as a "frame overflow" row
// instead of aborting the experiment, because that failure is exactly
// the wall sharding removes.
func DomainScale(ctx context.Context, sc Scale) ([]*report.Table, error) {
	shard := sc.ShardCells
	if shard == 0 {
		shard = 1 << 16
	}
	nq := sc.ThroughputQueries
	if nq <= 0 {
		nq = 24
	}
	const inflight = 8
	tb := report.New(
		fmt.Sprintf("Domain scale — %d owners, %d mixed queries per point, %d in flight, shard %s cells",
			sc.Owners, nq, inflight, human(shard)),
		"domain", "wire mode", "outsource peak frame", "query peak frame", "queries/sec", "wall(s)")

	overflow := func(err error) bool { return errors.Is(err, transport.ErrFrameTooLarge) }
	for _, domain := range sc.Domains {
		for _, mode := range []struct {
			name  string
			cells uint64
		}{
			{"monolithic", 0},
			{"sharded", shard},
		} {
			sys, _, _, err := Build(SystemSpec{
				Owners: sc.Owners, Domain: domain,
				ShardCells: mode.cells, EncodeWire: true,
			})
			if err != nil {
				if overflow(err) {
					tb.Add(human(domain), mode.name, "FRAME OVERFLOW", "-", "-", "-")
					continue
				}
				return nil, err
			}
			outPeak := sys.PeakFrameBytes()
			sys.ResetPeakFrame()
			sys.SetMaxInflight(inflight)

			reqs := make([]prism.Request, nq)
			for i := range reqs {
				reqs[i] = domainScaleMix[i%len(domainScaleMix)]
			}
			start := time.Now()
			resps := sys.QueryBatch(ctx, reqs)
			wall := time.Since(start)
			nerr := 0
			var firstErr error
			for _, r := range resps {
				if r.Err != nil {
					nerr++
					if firstErr == nil {
						firstErr = r.Err
					}
				}
			}
			if nerr == nq && overflow(firstErr) {
				tb.Add(human(domain), mode.name, humanBytes(outPeak), "FRAME OVERFLOW", "-", "-")
				continue
			}
			if nerr > 0 {
				return nil, fmt.Errorf("benchx: domainscale %s @%s: %d/%d queries failed (first: %v)",
					mode.name, human(domain), nerr, nq, firstErr)
			}
			tb.Add(human(domain), mode.name, humanBytes(outPeak), humanBytes(sys.PeakFrameBytes()),
				fmt.Sprintf("%.1f", float64(nq)/wall.Seconds()), report.Seconds(wall.Nanoseconds()))
		}
	}
	return []*report.Table{tb}, nil
}

// memScaleMix is the operator mix of the memscale experiment: the
// stored-order, permuted-output and selector-upload exchange shapes, so
// every fetch path (window, gather, aggregation) contributes to the
// residency measurement.
var memScaleMix = []prism.Request{
	{Op: prism.OpPSI},
	{Op: prism.OpPSICount},
	{Op: prism.OpPSISum, Cols: []string{"DT"}},
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
	shard := sc.ShardCells
	if shard == 0 {
		shard = 1 << 16
	}
	nq := sc.ThroughputQueries
	if nq <= 0 {
		nq = 24
	}
	const inflight = 8
	budget := 64 * 2 * shard // 64 uint16 chunks of hot-cache headroom
	tb := report.New(
		fmt.Sprintf("Memory scale — %d owners, %d mixed queries per point, %d in flight, shard/chunk %s cells, cache budget %s",
			sc.Owners, nq, inflight, human(shard), humanBytes(int64(budget))),
		"domain", "mode", "outsource peak resident", "query peak resident", "queries/sec", "cells/sec", "wall(s)", "results")

	for _, domain := range sc.Domains {
		var baseline []string
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
			sys, _, _, err := Build(spec)
			if err != nil {
				return nil, err
			}
			outPeak := sys.PeakServerHeldBytes()
			sys.ResetServerHeldPeaks()
			sys.SetMaxInflight(inflight)

			reqs := make([]prism.Request, nq)
			for i := range reqs {
				reqs[i] = memScaleMix[i%len(memScaleMix)]
			}
			cells0 := cellsProcessed.Value()
			start := time.Now()
			resps := sys.QueryBatch(ctx, reqs)
			wall := time.Since(start)
			cellsSeen := cellsProcessed.Value() - cells0
			fps := make([]string, len(resps))
			for i, r := range resps {
				if r.Err != nil {
					return nil, fmt.Errorf("benchx: memscale %s @%s: query %d failed: %v", mode.name, human(domain), i, r.Err)
				}
				fps[i] = fingerprint(r.Result)
			}
			result := "baseline"
			if baseline == nil {
				baseline = fps
			} else {
				result = "match"
				for i := range fps {
					if fps[i] != baseline[i] {
						return nil, fmt.Errorf("benchx: memscale @%s: query %d result diverged between modes", human(domain), i)
					}
				}
			}
			tb.Add(human(domain), mode.name, humanBytes(outPeak), humanBytes(sys.PeakServerHeldBytes()),
				fmt.Sprintf("%.1f", float64(nq)/wall.Seconds()), cellsRate(cellsSeen, wall),
				report.Seconds(wall.Nanoseconds()), result)
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

// streamDeltaMax is the per-table delta-log threshold the streamscale
// experiment runs under: small enough that the background compactor
// fires several times during the update phase, so reads race both
// in-flight deltas and base-chunk rewrites.
const streamDeltaMax = 8

// StreamScale measures the incremental-update path: the cost of
// shipping a single-tuple change as StoreDelta windows versus a full
// re-outsource of the same table, read throughput while updates and
// threshold-triggered compaction run concurrently, and result parity
// between the merged view (base chunks + delta overlay) and the
// compacted base. Any fingerprint divergence or undrained backlog after
// the final synchronous compaction fails the experiment.
func StreamScale(ctx context.Context, sc Scale) ([]*report.Table, error) {
	shard := sc.ShardCells
	if shard == 0 {
		shard = 1 << 16
	}
	nup := sc.ThroughputQueries
	if nup <= 0 {
		nup = 24
	}
	budget := 64 * 2 * shard
	tb := report.New(
		fmt.Sprintf("Stream scale — %d owners, %d single-tuple updates, shard/chunk %s cells, compaction threshold %d entries",
			sc.Owners, nup, human(shard), streamDeltaMax),
		"domain", "update(ms)", "re-outsource(s)", "speedup", "reads/sec", "query peak resident", "backlog@compact", "results")

	for _, domain := range sc.Domains {
		if err := streamScalePoint(ctx, sc, tb, domain, shard, budget, nup); err != nil {
			return nil, err
		}
	}
	return []*report.Table{tb}, nil
}

func streamScalePoint(ctx context.Context, sc Scale, tb *report.Table, domain, shard, budget uint64, nup int) error {
	spec := SystemSpec{
		Owners:     sc.Owners,
		Domain:     domain,
		Seed:       "streamscale",
		ShardCells: shard,
		ChunkCells: shard,
		HotChunks:  budget,
		DiskDir:    fmt.Sprintf("%s/streamscale-%s", sc.DiskDir, human(domain)),
		DeltaMax:   streamDeltaMax,
	}
	sys, _, _, err := Build(spec)
	if err != nil {
		return err
	}
	defer sys.Close()

	// Baseline the delta path is up against: re-outsourcing the full
	// O(b) table after a change. Owner 0's data is unchanged, so this
	// rebuilds identical shares and leaves results untouched.
	start := time.Now()
	if _, err := sys.Owner(0).Outsource(ctx); err != nil {
		return fmt.Errorf("benchx: streamscale @%s: re-outsource: %w", human(domain), err)
	}
	reout := time.Since(start)
	sys.ResetServerHeldPeaks()

	// Sustained reads racing the update stream and the background
	// compactor. The reader reports how many queries it completed.
	type tally struct {
		n   int
		err error
	}
	stop := make(chan struct{})
	readRes := make(chan tally, 1)
	first := make(chan struct{})
	go func() {
		var t tally
		defer func() { readRes <- t }()
		for i := 0; ; i++ {
			if i > 0 {
				select {
				case <-stop:
					return
				default:
				}
			}
			for _, r := range sys.QueryBatch(ctx, memScaleMix) {
				if r.Err != nil {
					t.err = fmt.Errorf("benchx: streamscale @%s: concurrent read: %w", human(domain), r.Err)
					if i == 0 {
						close(first)
					}
					return
				}
				t.n++
			}
			if i == 0 {
				close(first)
			}
		}
	}()

	start = time.Now()
	maxv := spec.withDefaults().MaxValue
	for i := 0; i < nup; i++ {
		cell := (uint64(i)*2654435761 + 7) % domain
		// The loaded dataset carries every workload column; an update
		// tuple must too, even though only AggCols are outsourced.
		aggs := make(map[string][]uint64, len(workload.Columns))
		for j, col := range workload.Columns {
			aggs[col] = []uint64{1 + (uint64(i)+uint64(j)*13)%maxv}
		}
		st, err := sys.Owner(0).UpdateCells(ctx, []uint64{cell}, aggs, nil, nil)
		if err != nil {
			close(stop)
			<-readRes
			return fmt.Errorf("benchx: streamscale @%s: update %d: %w", human(domain), i, err)
		}
		if !st.FastPath {
			// Every streamscale update is append-only, so the owner must
			// take the direct-append fold that skips the removal-match
			// scan — the measured update cost depends on it.
			close(stop)
			<-readRes
			return fmt.Errorf("benchx: streamscale @%s: append-only update %d skipped the fast path", human(domain), i)
		}
	}
	upWall := time.Since(start)
	<-first // at least one full read pass lands inside the measured window
	close(stop)
	rt := <-readRes
	readWall := time.Since(start)
	if rt.err != nil {
		return rt.err
	}
	peak := sys.PeakServerHeldBytes()

	// Parity: the merged (base + delta overlay) view must answer
	// exactly like the compacted base it is later folded into.
	pre := make([]string, len(memScaleMix))
	for i, r := range sys.QueryBatch(ctx, memScaleMix) {
		if r.Err != nil {
			return fmt.Errorf("benchx: streamscale @%s: pre-compaction read: %w", human(domain), r.Err)
		}
		pre[i] = fingerprint(r.Result)
	}
	backlog := 0
	for phi := 0; phi < 3; phi++ {
		backlog += sys.ServerEngine(phi).DeltaBacklog("main")
	}
	if err := sys.CompactTables(); err != nil {
		return fmt.Errorf("benchx: streamscale @%s: compaction: %w", human(domain), err)
	}
	for phi := 0; phi < 3; phi++ {
		if n := sys.ServerEngine(phi).DeltaBacklog("main"); n != 0 {
			return fmt.Errorf("benchx: streamscale @%s: server %d delta backlog %d after CompactTables", human(domain), phi, n)
		}
	}
	for i, r := range sys.QueryBatch(ctx, memScaleMix) {
		if r.Err != nil {
			return fmt.Errorf("benchx: streamscale @%s: post-compaction read: %w", human(domain), r.Err)
		}
		if fp := fingerprint(r.Result); fp != pre[i] {
			return fmt.Errorf("benchx: streamscale @%s: query %d diverged after compaction", human(domain), i)
		}
	}

	avgUp := upWall / time.Duration(nup)
	tb.Add(human(domain),
		fmt.Sprintf("%.2f", float64(avgUp.Nanoseconds())/1e6),
		report.Seconds(reout.Nanoseconds()),
		fmt.Sprintf("%.0f×", float64(reout)/float64(avgUp)),
		fmt.Sprintf("%.1f", float64(rt.n)/readWall.Seconds()),
		humanBytes(peak),
		fmt.Sprint(backlog),
		"match")
	return nil
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
	nq := sc.ThroughputQueries
	if nq <= 0 {
		nq = 24
	}
	const inflight = 8
	tb := report.New(
		fmt.Sprintf("Group scale — %d owners, %s-cell domain, %d mixed queries per point, %d in flight, 1 thread per server",
			sc.Owners, human(domain), nq, inflight),
		"groups", "queries/sec", "cells/sec", "speedup", "peak frame", "owner merge(ms/query)", "results")

	var baseline []string
	var baseQPS float64
	var basePeak int64
	for _, groups := range groupScaleGroups {
		spec := SystemSpec{
			Owners:     sc.Owners,
			Domain:     domain,
			Groups:     groups,
			Threads:    1,
			EncodeWire: true,
			Seed:       "groupscale",
		}
		sys, _, _, err := Build(spec)
		if err != nil {
			return nil, err
		}
		sys.SetMaxInflight(inflight)
		sys.ResetPeakFrame()

		reqs := make([]prism.Request, nq)
		for i := range reqs {
			reqs[i] = memScaleMix[i%len(memScaleMix)]
		}
		cells0 := cellsProcessed.Value()
		start := time.Now()
		resps := sys.QueryBatch(ctx, reqs)
		wall := time.Since(start)
		cellsSeen := cellsProcessed.Value() - cells0

		fps := make([]string, len(resps))
		var ownerNS int64
		for i, r := range resps {
			if r.Err != nil {
				return nil, fmt.Errorf("benchx: groupscale @%d groups: query %d failed: %v", groups, i, r.Err)
			}
			fps[i] = fingerprint(r.Result)
			ownerNS += r.Result.Stats.OwnerNS
		}
		result := "baseline"
		if baseline == nil {
			baseline = fps
		} else {
			result = "match"
			for i := range fps {
				if fps[i] != baseline[i] {
					return nil, fmt.Errorf("benchx: groupscale @%d groups: query %d result diverged from single-group baseline", groups, i)
				}
			}
		}
		peak := sys.PeakFrameBytes()
		if basePeak == 0 {
			basePeak = peak
		} else if peak > basePeak {
			// Per-group windows are sub-ranges of the single-group
			// window, so splitting the domain must never grow a frame.
			return nil, fmt.Errorf("benchx: groupscale @%d groups: peak frame %s exceeds the single-group peak %s",
				groups, humanBytes(peak), humanBytes(basePeak))
		}
		qps := float64(nq) / wall.Seconds()
		speedup := "1.00×"
		if baseQPS == 0 {
			baseQPS = qps
		} else {
			speedup = fmt.Sprintf("%.2f×", qps/baseQPS)
		}
		tb.Add(fmt.Sprint(groups),
			fmt.Sprintf("%.1f", qps),
			cellsRate(cellsSeen, wall),
			speedup,
			humanBytes(peak),
			fmt.Sprintf("%.2f", float64(ownerNS)/float64(nq)/1e6),
			result)
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
