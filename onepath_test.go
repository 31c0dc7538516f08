package prism

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestQueryScriptLivesInExec keeps "which rounds make up a query" in one
// place. In the module's non-test source outside internal/ownerengine
// (and outside benchmark/, a separate module the harness owns):
//
//   - nothing calls VerifyPSI, Aggregate, SubmitExtreme, FetchExtreme,
//     SubmitClaim or FetchClaims, or builds a protocol.ExtremeReduceRequest
//     — a front door that needs a query calls ownerengine.Exec;
//   - exactly one type implements gateway.Backend (an Exec taking a
//     Query next to a Ping), so the backend that ships is the one the
//     tests and benchmarks run.
func TestQueryScriptLivesInExec(t *testing.T) {
	script := map[string]bool{
		"VerifyPSI": true, "Aggregate": true,
		"SubmitExtreme": true, "FetchExtreme": true, "SubmitClaim": true, "FetchClaims": true,
	}
	// methods[dir+"."+receiver][name] is the method's parameter count.
	methods := map[string]map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "ownerengine") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && script[sel.Sel.Name] {
					t.Errorf("%s: calls %s; only ownerengine.Exec runs a query's rounds", fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "ExtremeReduceRequest" {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
