package analysis

import (
	"go/ast"
	"strings"
)

// WireRegistry checks that every exported wire-message struct in
// internal/protocol — any exported struct type whose name ends in
// Request or Reply — appears in Messages(), the frame codec's type
// table. A message travels as its index in that list, so an unlisted
// type compiles fine and fails only at runtime, on the first RPC that
// carries it. Each new RPC pair risks exactly this drift; the analyzer
// makes it a vet error instead.
var WireRegistry = &Analyzer{
	Name: "wireregistry",
	Doc:  "every protocol *Request/*Reply struct must be in the Messages() type table",
	Run:  runWireRegistry,
}

func runWireRegistry(pass *Pass) error {
	if pass.Pkg.Path != protocolPath {
		return nil
	}

	// The type table: composite-literal type names inside Messages().
	listed := make(map[string]bool)
	var messages *ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "Messages" {
				messages = fd
			}
		}
	}
	if messages == nil && len(pass.Pkg.Files) > 0 {
		pass.Reportf(pass.Pkg.Files[0].Package, "package %s has no Messages function to hold the wire type table", pass.Pkg.Path)
		return nil
	}
	ast.Inspect(messages, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if ident, ok := lit.Type.(*ast.Ident); ok {
			listed[ident.Name] = true
		}
		return true
	})

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				if _, ok := ts.Type.(*ast.StructType); !ok {
					continue
				}
				name := ts.Name.Name
				if !strings.HasSuffix(name, "Request") && !strings.HasSuffix(name, "Reply") {
					continue
				}
				if !listed[name] {
					pass.Reportf(ts.Pos(), "wire message %s is not in the Messages() type table; it will fail at runtime on its first RPC", name)
				}
			}
		}
	}
	return nil
}
