// Package analysis is prism-vet's analyzer framework: a small,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, Diagnostic) over a stdlib
// go/parser + go/types loader (load.go), so the invariant checkers can
// run hermetically in CI with no module downloads.
//
// PRISM's correctness rests on rules the Go compiler cannot see: wire
// messages must be in the wire type table, secret shares must never touch
// math/rand, the sharestore must keep its tmp+rename atomic-write
// discipline, and engines must not block on the network while holding
// a mutex. Each such rule is an Analyzer here; code-shape rules that
// bound a count are rows of one, Shape. cmd/prism-vet runs them all and
// CI blocks on the result.
//
// Suppression: a site audited by a human can carry
//
//	//prism:allow <name>[,<name>...] [reason]
//
// on the same line as the finding or the line immediately above it;
// diagnostics from the named analyzers at that line are dropped, except
// Shape's. The reason text is free-form but should say why the site is
// safe.
package analysis

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	Name string // short lower-case name, used in findings and allow-comments
	Doc  string // one-line description of the invariant it guards

	// Run checks one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one package under analysis.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package   // the package being checked
	All      []*Package // every module package in the run, load order
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// AllowPrefix is the magic comment marker for audited exceptions.
const AllowPrefix = "//prism:allow"

// allowedLines maps file → line → set of analyzer names allowed there.
// A comment at line L suppresses findings at L and L+1, so the marker
// can sit either at the end of the offending line or on its own line
// directly above.
func allowedLines(pkgs []*Package) map[string]map[int]map[string]bool {
	allowed := make(map[string]map[int]map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, AllowPrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, AllowPrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. //prism:allowedly — not ours
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					byLine := allowed[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						allowed[pos.Filename] = byLine
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						names := byLine[line]
						if names == nil {
							names = make(map[string]bool)
							byLine[line] = names
						}
						for _, name := range strings.Split(fields[0], ",") {
							names[name] = true
						}
					}
				}
			}
		}
	}
	return allowed
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. Allow-comments are honoured across the
// whole run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	allowed := allowedLines(pkgs)
	kept := diags[:0]
	for _, d := range diags {
		if names := allowed[d.Pos.Filename][d.Pos.Line]; names[d.Analyzer] && d.Analyzer != Shape.Name {
			continue
		}
		kept = append(kept, d)
	}
	slices.SortFunc(kept, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return kept, nil
}

// Analyzers returns the full prism-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WireRegistry,
		AtomicWrite,
		LockScope,
		MetricNames,
		Shape,
	}
}

// ByName resolves a comma-separated analyzer name list against the
// suite; an unknown name is an error.
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}
