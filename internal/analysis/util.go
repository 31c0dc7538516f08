package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the packages the analyzers reason about. Fixture
// trees under testdata mirror the same layout, so these work for both
// the real module and the test fixtures.
const (
	protocolPath     = "prism/internal/protocol"
	transportPath    = "prism/internal/transport"
	storePath        = "prism/internal/sharestore"
	telemetryPath    = "prism/internal/telemetry"
	serverEnginePath = "prism/internal/serverengine"
	gatewayPath      = "prism/internal/gateway"
)

// calleeObject resolves the object a call expression invokes: a
// *types.Func for direct calls, method calls and interface-method
// calls, nil for calls through function-typed variables or built-ins.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// namedStruct unwraps pointers and aliases and returns the named struct
// type behind t, or nil.
func namedStruct(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// pkgUnder reports whether the package path is exactly prefix/elem for
// one of the listed elems, e.g. pkgUnder(p, "prism/internal", "share",
// "prg") matches prism/internal/share and prism/internal/prg.
func pkgUnder(path, prefix string, elems ...string) bool {
	rest, ok := strings.CutPrefix(path, prefix+"/")
	if !ok {
		return false
	}
	for _, e := range elems {
		if rest == e {
			return true
		}
	}
	return false
}
