// Command prism-bench regenerates every table and figure of the paper's
// evaluation section (§8). See internal/benchx for the experiment index
// and docs/OPERATIONS.md for how to read the output.
//
// Usage:
//
//	prism-bench -exp all                 # quick scale (laptop friendly)
//	prism-bench -exp exp1 -paper         # Figure 3 at the paper's sizes
//	prism-bench -exp exp4                # Figure 5 (100M-leaf tree)
//	prism-bench -exp exp2 -csv out/      # also write CSV series
//
// Experiments: exp1 table12 exp2 exp3 exp4 sharegen table13 fanout
// throughput tcpthroughput domainscale memscale streamscale groupscale
// gatewayscale all. The
// tcpthroughput experiment runs the query mix over real loopback TCP
// twice — with the serialised one-RPC-per-connection baseline and with
// the multiplexed client — so the transport win is measured, not
// asserted. The domainscale experiment compares the monolithic wire
// mode against sharded exchanges (-shard cells per frame) across domain
// sizes, reporting peak frame bytes and queries/sec; monolithic rows
// whose frames exceed the transport cap report FRAME OVERFLOW. The
// memscale experiment compares peak server resident column bytes —
// in-memory monolithic serving vs the sharded chunked segment store —
// during outsourcing and a mixed query load, requiring identical result
// fingerprints between the modes. The streamscale experiment measures
// the incremental-update path: single-tuple StoreDelta updates vs a
// full re-outsource, read throughput while updates and
// threshold-triggered compaction race, and result parity between the
// merged base+delta view and the compacted base. The groupscale
// experiment sweeps 1/2/4 server groups over one fixed domain, each
// group a full S0/S1/S2 triple serving a contiguous cell range,
// reporting mixed-query throughput, the peak wire frame (which must not
// grow with groups) and the owner-side merge cost; multi-group result
// fingerprints must match the single-group baseline. The gatewayscale
// experiment measures the stateless query front tier: queries/sec and
// latency percentiles at increasing concurrent front-protocol client
// counts against the direct-owner baseline (every gateway answer
// fingerprint-checked against the direct path), plus an overload run
// at 2× the admission capacity that must surface as typed load-shed
// errors rather than hangs. What tracing costs is measured by the repo
// benchmark's traced pass (benchmark/, trace_overhead_pct).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prism/internal/benchx"
	"prism/internal/report"
	"prism/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: exp1|table12|exp2|exp3|exp4|sharegen|table13|fanout|throughput|tcpthroughput|domainscale|memscale|streamscale|groupscale|gatewayscale|all")
		metrics = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address while experiments run (e.g. :9103); empty disables the endpoint")
		paper   = flag.Bool("paper", false, "use the paper's full sizes (5M/20M domains; needs ~16GB RAM)")
		domain  = flag.Uint64("domain", 0, "override: single domain size")
		owners  = flag.Int("owners", 0, "override: owner count for exp1/exp3/table12/sharegen")
		csvDir  = flag.String("csv", "", "also write CSV files to this directory")
		diskDir = flag.String("disk", "", "disk-backed share stores for exp1 fetch timing (default: temp dir)")
		linkRTT = flag.Duration("rtt", -1, "tcpthroughput: simulated owner↔server link RTT (-1 = scale default, 0 = raw loopback)")
		shard   = flag.Uint64("shard", 0, "domainscale: shard size in cells for the sharded wire mode (0 = 65536)")
	)
	flag.Parse()

	if *metrics != "" {
		telemetry.ServeAdmin(*metrics, telemetry.AdminMux(), func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "prism-bench: "+format+"\n", args...)
		})
	}

	sc := benchx.QuickScale()
	if *paper {
		sc = benchx.PaperScale()
	}
	if *domain != 0 {
		sc.Domains = []uint64{*domain}
	}
	if *owners != 0 {
		sc.Owners = *owners
	}
	if *linkRTT >= 0 {
		sc.LinkRTT = *linkRTT
	}
	if *shard != 0 {
		sc.ShardCells = *shard
	}
	if *diskDir != "" {
		sc.DiskDir = *diskDir
	} else {
		tmp, err := os.MkdirTemp("", "prism-bench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		sc.DiskDir = tmp
	}

	ctx := context.Background()
	run := func(name string, fn func() ([]*report.Table, error)) {
		fmt.Printf("\n### %s\n", name)
		tables, err := fn()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for i, tb := range tables {
			tb.Render(os.Stdout)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fatal(err)
				}
				path := filepath.Join(*csvDir, fmt.Sprintf("%s-%d.csv", name, i))
				f, err := os.Create(path)
				if err != nil {
					fatal(err)
				}
				tb.CSV(f)
				f.Close()
				fmt.Printf("(csv: %s)\n", path)
			}
		}
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	matched := false
	if want("exp1") {
		matched = true
		run("exp1", func() ([]*report.Table, error) { return benchx.Exp1(ctx, sc) })
	}
	if want("table12") {
		matched = true
		run("table12", func() ([]*report.Table, error) { return benchx.Table12(ctx, sc) })
	}
	if want("exp2") {
		matched = true
		run("exp2", func() ([]*report.Table, error) { return benchx.Exp2(ctx, sc) })
	}
	if want("exp3") {
		matched = true
		run("exp3", func() ([]*report.Table, error) { return benchx.Exp3(ctx, sc) })
	}
	if want("exp4") {
		matched = true
		run("exp4", func() ([]*report.Table, error) { return benchx.Exp4(sc), nil })
	}
	if want("sharegen") {
		matched = true
		run("sharegen", func() ([]*report.Table, error) { return benchx.ShareGen(ctx, sc) })
	}
	if want("table13") {
		matched = true
		run("table13", func() ([]*report.Table, error) { return benchx.Table13(ctx, sc) })
	}
	if want("fanout") {
		matched = true
		run("fanout", func() ([]*report.Table, error) { return benchx.FanoutAblation(sc), nil })
	}
	if want("throughput") {
		matched = true
		run("throughput", func() ([]*report.Table, error) { return benchx.Throughput(ctx, sc) })
	}
	if want("tcpthroughput") {
		matched = true
		run("tcpthroughput", func() ([]*report.Table, error) { return benchx.TCPThroughput(ctx, sc) })
	}
	if want("domainscale") {
		matched = true
		run("domainscale", func() ([]*report.Table, error) { return benchx.DomainScale(ctx, sc) })
	}
	if want("memscale") {
		matched = true
		run("memscale", func() ([]*report.Table, error) { return benchx.MemScale(ctx, sc) })
	}
	if want("streamscale") {
		matched = true
		run("streamscale", func() ([]*report.Table, error) { return benchx.StreamScale(ctx, sc) })
	}
	if want("groupscale") {
		matched = true
		run("groupscale", func() ([]*report.Table, error) { return benchx.GroupScale(ctx, sc) })
	}
	if want("gatewayscale") {
		matched = true
		run("gatewayscale", func() ([]*report.Table, error) { return benchx.GatewayScale(ctx, sc) })
	}
	if !matched {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-bench:", err)
	os.Exit(1)
}
