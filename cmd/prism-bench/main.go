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
// prism-bench -h prints the experiment index (name and one line each),
// generated like the -exp usage from benchx.Experiments. What the repo
// benchmark (benchmark/) measures instead — sustained throughput,
// streaming updates, the gateway tier, tracing cost — is listed in
// docs/OPERATIONS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"prism/internal/benchx"
	"prism/internal/report"
	"prism/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+benchx.ExperimentNames("|"))
		metrics = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address while experiments run (e.g. :9103); empty disables the endpoint")
		paper   = flag.Bool("paper", false, "use the paper's full sizes (5M/20M domains; needs ~16GB RAM)")
		domain  = flag.Uint64("domain", 0, "override: single domain size")
		owners  = flag.Int("owners", 0, "override: owner count for exp1/exp3/table12/sharegen")
		csvDir  = flag.String("csv", "", "also write CSV files to this directory")
		diskDir = flag.String("disk", "", "disk-backed share stores for exp1 fetch timing (default: temp dir)")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(w, "\nExperiments:")
		for _, e := range benchx.Experiments {
			fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Doc)
		}
	}
	flag.Parse()
	selected, err := benchx.Select(*exp)
	if err != nil {
		fatal(err)
	}

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
	for _, e := range selected {
		fmt.Printf("\n### %s\n", e.Name)
		tables, err := e.Run(ctx, sc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		for i, tb := range tables {
			tb.Render(os.Stdout)
			if *csvDir != "" {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s-%d.csv", e.Name, i))
				if err := writeCSV(path, tb); err != nil {
					fatal(err)
				}
				fmt.Printf("(csv: %s)\n", path)
			}
		}
	}
}

// writeCSV writes one table to path, creating its directory.
func writeCSV(path string, tb *report.Table) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.CSV(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-bench:", err)
	os.Exit(1)
}
