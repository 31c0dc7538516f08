// prism-vet machine-checks the invariants PRISM's correctness rests on
// but the Go compiler cannot see: wire messages listed in the type table,
// the sharestore's tmp+rename atomic-write discipline, no blocking under
// engine mutexes, metric-name discipline, and the shape table — one
// bounded row per code-shape rule, among them crypto-grade randomness in
// share derivation, keyed wire-struct literals, the test-only hook and
// at most two rounds per query. It is a blocking CI step next to go vet.
//
// Usage:
//
//	prism-vet [-only name,name] [-list] [packages]
//
// The package arguments are accepted for CLI symmetry with go vet
// ("prism-vet ./...") but the tool always loads and checks the whole
// module containing the working directory: the invariants are
// repo-wide, and a partial view could only hide findings.
//
// Audited exceptions carry a "//prism:allow <name> <reason>" comment on
// the flagged line or the line above (a shape row takes none); see docs/ARCHITECTURE.md
// ("Machine-checked invariants").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"prism/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prism-vet:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "prism-vet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prism-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prism-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "prism-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
