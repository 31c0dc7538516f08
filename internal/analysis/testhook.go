package analysis

import (
	"go/ast"
	"path/filepath"
)

// TestHook fences the test-only seams. testhooks.go declares the
// System.interceptGroupServer/restoreGroupServer pair — hooks that
// rewire a live server through an arbitrary wrapper so tests can tamper
// with replies. Production code reaching for those hooks would
// be a correctness and security hazard (a silent man-in-the-middle
// seam), so this analyzer flags any reference from a non-test file
// other than testhooks.go itself to an object declared in a
// testhooks.go. The loader never parses _test.go files, so test usage
// is naturally exempt — the rule is precisely "no non-test caller".
var TestHook = &Analyzer{
	Name: "testhook",
	Doc:  "only test files may reference the testhooks.go intercept/restore seams",
	Run:  runTestHook,
}

const testHooksFile = "testhooks.go"

func runTestHook(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		pos := pass.Pkg.Fset.Position(f.Package)
		if filepath.Base(pos.Filename) == testHooksFile {
			continue // the hooks may reference each other
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ident, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[ident]
			if obj == nil || !obj.Pos().IsValid() {
				return true
			}
			if filepath.Base(pass.Pkg.Fset.Position(obj.Pos()).Filename) == testHooksFile {
				pass.Reportf(ident.Pos(), "%s is a test-only hook (declared in %s); non-test code must not rewire server handlers", ident.Name, testHooksFile)
			}
			return true
		})
	}
	return nil
}
