package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture trees live under testdata/<analyzer>/src/<import path>/ —
// GOPATH-style, with the same "prism/..." import paths the real module
// uses, so the analyzers' package-path matching works unchanged. Each
// seeded violation carries a `// want "substring"` comment on its line;
// the harness requires diagnostics and want-comments to match 1:1, so a
// fixture proves both that the analyzer fires on the violation and that
// it stays quiet on the clean code around it.

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// loadFixture loads every package under testdata/<name>/src.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", name, "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := NewTreeLoader("prism", func(importPath string) string {
		return filepath.Join(src, filepath.FromSlash(importPath))
	})
	var paths []string
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			rel, err := filepath.Rel(src, filepath.Dir(path))
			if err != nil {
				return err
			}
			p := filepath.ToSlash(rel)
			if len(paths) == 0 || paths[len(paths)-1] != p {
				paths = append(paths, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking fixture %s: %v", name, err)
	}
	pkgs, err := ld.Load(paths)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkgs
}

// checkFixture runs one analyzer over its fixture tree and diffs the
// findings against the // want comments.
func checkFixture(t *testing.T, a *Analyzer) { checkRow(t, a, "") }

// checkRow is checkFixture keeping only the findings and wants that
// start with row, the name of a shape row ("" keeps all).
func checkRow(t *testing.T, a *Analyzer, row string) {
	t.Helper()
	pkgs := loadFixture(t, a.Name)
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil || !strings.HasPrefix(m[1], row) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					wants[key{pos.Filename, pos.Line}] = m[1]
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments; it would pass vacuously", a.Name)
	}

	matched := make(map[key]bool)
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, row) {
			continue
		}
		k := key{d.Pos.Filename, d.Pos.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("%s: finding %q does not contain want %q", d.Pos, d.Message, want)
		}
		matched[k] = true
	}
	for k, want := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, want)
		}
	}
}

func TestWireRegistryFixture(t *testing.T) { checkFixture(t, WireRegistry) }
func TestAtomicWriteFixture(t *testing.T)  { checkFixture(t, AtomicWrite) }
func TestLockScopeFixture(t *testing.T)    { checkFixture(t, LockScope) }
func TestMetricNamesFixture(t *testing.T)  { checkFixture(t, MetricNames) }
func TestShapeFixture(t *testing.T)        { checkFixture(t, Shape) }
func TestCryptoRandFixture(t *testing.T)   { checkRow(t, Shape, "cryptorand:") }
func TestKeyedWireFixture(t *testing.T)    { checkRow(t, Shape, "keyedwire:") }
func TestTestHookFixture(t *testing.T)     { checkRow(t, Shape, "test-hooks:") }
func TestUnsafeImportFixture(t *testing.T) { checkRow(t, Shape, "unsafe-import:") }

// TestRealTreeClean runs the full suite over the actual module — the
// same sweep CI's prism-vet step performs — so a regression against any
// machine-checked invariant fails tier-1 `go test ./...`, not just CI
// wiring. Every deliberate exception in the tree must carry its
// //prism:allow annotation for this to stay green.
func TestRealTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walker is missing most of the tree", len(pkgs))
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); fix them or annotate audited sites with %s <name>", len(diags), AllowPrefix)
	}
}

// TestByName covers the driver's analyzer selection.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("lockscope, shape")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName(two) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not error")
	}
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
}

// TestDiagnosticString pins the file:line:col output format CI logs
// and editors parse.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "lockscope", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: [lockscope] boom"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}
