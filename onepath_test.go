package prism

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestQueryScriptLivesInExec keeps "which rounds make up a query" in one
// place, internal/ownerengine/exec.go. In the module's non-test source
// (outside benchmark/, a separate module the harness owns):
//
//   - only exec.go calls a round — a group engine's SetResult (round 1
//     of every set and cardinality kind), BucketResult (bpsi's level
//     rounds), Aggregate, the owner's localValues,
//     SubmitExtreme, FetchExtreme, SubmitClaim or FetchClaims — or builds
//     a protocol.ExtremeReduceRequest; a front door that needs a query
//     calls ownerengine.Exec;
//   - exec.go fans a query out to the groups once: one eachGroup call;
//   - exactly one type implements gateway.Backend (an Exec taking a
//     Query next to a Ping), so the backend that ships is the one the
//     tests and benchmarks run.
func TestQueryScriptLivesInExec(t *testing.T) {
	engineDir := filepath.Join("internal", "ownerengine")
	execGo := filepath.Join(engineDir, "exec.go")
	rounds := map[string]bool{
		"SetResult": true, "BucketResult": true, "Aggregate": true, "localValues": true,
		"SubmitExtreme": true, "FetchExtreme": true, "SubmitClaim": true, "FetchClaims": true,
	}
	fanouts := 0
	// methods[dir+"."+receiver][name] is the method's parameter count.
	methods := map[string]map[string]int{}
	walkSource(t, "", func(fset *token.FileSet, path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if name := sel.Sel.Name; path == execGo {
					if name == "eachGroup" {
						fanouts++
					}
				} else if rounds[name] {
					t.Errorf("%s: calls %s; only ownerengine.Exec runs a query's rounds", fset.Position(n.Pos()), name)
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "ExtremeReduceRequest" && path != execGo {
					t.Errorf("%s: builds an ExtremeReduceRequest; only ownerengine.Exec runs the global reduce", fset.Position(n.Pos()))
				}
			case *ast.FuncDecl:
				if n.Recv != nil && len(n.Recv.List) == 1 {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						key := filepath.Dir(path) + "." + id.Name
						if methods[key] == nil {
							methods[key] = map[string]int{}
						}
						methods[key][n.Name.Name] = n.Type.Params.NumFields()
					}
				}
			}
			return true
		})
	})
	if fanouts != 1 {
		t.Errorf("exec.go calls eachGroup %d times; a query is one fan-out", fanouts)
	}
	var backends []string
	for typ, m := range methods {
		// gateway.Backend: Exec(ctx, Query) and Ping(ctx).
		if exec, ok := m["Exec"]; ok && exec == 2 && m["Ping"] == 1 {
			backends = append(backends, typ)
		}
	}
	if len(backends) != 1 || backends[0] != filepath.Join("internal", "gateway")+".EngineBackend" {
		t.Errorf("gateway.Backend implementations = %v, want only internal/gateway.EngineBackend", backends)
	}
}

// walkSource parses every non-test Go file of the module outside
// benchmark/ (a separate module the harness owns), dot directories and
// skipDir, and hands each to fn.
func walkSource(t *testing.T, skipDir string, fn func(fset *token.FileSet, path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == skipDir || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fn(fset, path, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWholeTableIsAWindow keeps "the whole table" a property of a
// request's range, never a mode. In the module's non-test source outside
// benchmark/:
//
//   - Range.Sharded is called only inside Engine.window, the one place a
//     zero range (old owners, hand-built probes) becomes {0, b};
//   - no struct in internal/ownerengine has a field named wire — owners
//     stamp an explicit range on every request;
//   - no comparison of len(o.groups) with an integer literal, in any
//     spelling (==, !=, <, <=, >, >=): a single group is the N = 1 case
//     of every fan-out, merge and error tag;
//   - in internal/serverengine a range's Count is compared with the
//     table's cell count (b, cells or a ….B selector), in any spelling,
//     only inside Engine.absorbShard, where a whole-window upload adopts
//     its columns instead of copying them: a permuted reply, a fetch or a
//     cache entry has no whole-table mode;
//   - the string "psup" does not occur: PSU masks have one label.
func TestWholeTableIsAWindow(t *testing.T) {
	serverDir := filepath.Join("internal", "serverengine")
	isSel := func(x ast.Expr, field string) bool {
		sel, ok := x.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == field
	}
	walkSource(t, "", func(fset *token.FileSet, path string, file *ast.File) {
		for _, decl := range file.Decls {
			name := "" // "Receiver.method" of the enclosing method
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sharded" && name != "Engine.window" {
						t.Errorf("%s: calls Sharded outside Engine.window; handlers see only a range", fset.Position(n.Pos()))
					}
				case *ast.Field:
					for _, id := range n.Names {
						if id.Name == "wire" && filepath.Dir(path) == filepath.Join("internal", "ownerengine") {
							t.Errorf("%s: ownerengine field named wire; the whole table is a window, not a wire mode", fset.Position(id.Pos()))
						}
					}
				case *ast.BinaryExpr:
					// Precedence 3 is the comparisons: ==, !=, <, <=, >, >=.
					for _, pair := range [][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if n.Op.Precedence() != 3 {
							break
						}
						lit, ok := pair[1].(*ast.BasicLit)
						if ok && lit.Kind == token.INT && types.ExprString(pair[0]) == "len(o.groups)" {
							t.Errorf("%s: %s; a single group is the N = 1 case", fset.Position(n.Pos()), types.ExprString(n))
						}
						if filepath.Dir(path) == serverDir && name != "Engine.absorbShard" && isSel(pair[0], "Count") &&
							(isSel(pair[1], "B") || types.ExprString(pair[1]) == "b" || types.ExprString(pair[1]) == "cells") {
							t.Errorf("%s: %s; the whole table is a window, not a mode", fset.Position(n.Pos()), types.ExprString(n))
						}
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING && strings.Contains(n.Value, "psup") {
						t.Errorf("%s: the PSU mask label \"psup\" is back", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	})
}
