// The package loader: a hermetic stdlib-only replacement for
// golang.org/x/tools/go/packages. It walks a source tree, parses every
// non-test file, and type-checks the packages in dependency order.
// In-module imports resolve against the loaded tree; everything else
// (the standard library) goes through go/importer's source-mode
// importer, so the whole pipeline needs nothing but GOROOT — no module
// proxy, no pre-built export data. prism-vet and the analyzer fixture
// tests both load through here, the fixtures from a GOPATH-style
// testdata/<analyzer>/src layout.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by file name
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves and type-checks a closure of packages from source.
type Loader struct {
	// Module is the import-path prefix whose packages load from the
	// local tree; anything else is treated as standard library.
	Module string
	// DirFor maps an in-module import path to its source directory.
	DirFor func(importPath string) string

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
	order   []*Package
}

// NewModuleLoader returns a loader for the Go module rooted at root
// (the directory holding go.mod).
func NewModuleLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return NewTreeLoader(modPath, func(importPath string) string {
		if importPath == modPath {
			return root
		}
		return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(importPath, modPath+"/")))
	}), nil
}

// NewTreeLoader returns a loader that maps in-module import paths
// through dirFor. Used directly by fixture tests, which lay packages
// out GOPATH-style under testdata.
func NewTreeLoader(module string, dirFor func(string) string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Module:  module,
		DirFor:  dirFor,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok && rest != "" && (rest[0] == ' ' || rest[0] == '\t') {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// LoadModule loads and type-checks every package of the module rooted
// at root (skipping testdata, dot-directories and test files) and
// returns them in dependency-then-path order.
func LoadModule(root string) ([]*Package, error) {
	ld, err := NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := modulePackageDirs(root, ld.Module)
	if err != nil {
		return nil, err
	}
	return ld.Load(paths)
}

// modulePackageDirs walks root and returns the import path of every
// directory containing non-test .go files.
func modulePackageDirs(root, module string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		p := module
		if rel != "." {
			p = module + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != p {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(paths)
	return slices.Compact(paths), nil
}

// Load type-checks the named in-module packages (and, transitively,
// their in-module dependencies) and returns every loaded package in
// dependency order.
func (ld *Loader) Load(importPaths []string) ([]*Package, error) {
	for _, p := range importPaths {
		if _, err := ld.load(p); err != nil {
			return nil, err
		}
	}
	return ld.order, nil
}

// inModule reports whether path is part of the analyzed tree.
func (ld *Loader) inModule(path string) bool {
	return path == ld.Module || strings.HasPrefix(path, ld.Module+"/")
}

func (ld *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := ld.pkgs[importPath]; ok {
		return pkg, nil
	}
	if ld.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	ld.loading[importPath] = true
	defer delete(ld.loading, importPath)

	dir := ld.DirFor(importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	// Pre-load in-module imports so the type-checker finds them ready.
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if ld.inModule(path) {
				if _, err := ld.load(path); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(ld)}
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: ld.fset, Files: files, Types: tpkg, Info: info}
	ld.pkgs[importPath] = pkg
	ld.order = append(ld.order, pkg)
	return pkg, nil
}

// loaderImporter routes in-module imports to the loader and everything
// else to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	ld := (*Loader)(li)
	if ld.inModule(path) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.ImportFrom(path, dir, mode)
}
