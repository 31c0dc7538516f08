package analysis

import (
	"go/ast"
)

// KeyedWire requires composite literals of protocol message types to
// use keyed fields, repo-wide. Wire structs grow fields over time —
// PR 7 added the Group tag to every data-plane request — and a
// positional literal either breaks loudly (field count changed)
// or, worse, keeps compiling with values silently bound to the wrong
// fields after a reorder of same-typed neighbours. Keyed literals make
// both impossible.
var KeyedWire = &Analyzer{
	Name: "keyedwire",
	Doc:  "composite literals of protocol message types must use keyed fields",
	Run:  runKeyedWire,
}

func runKeyedWire(pass *Pass) error {
	info := pass.Pkg.Info
	pass.walk(func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := info.Types[lit]
		if !ok {
			return true
		}
		named := namedStruct(tv.Type)
		if named == nil {
			return true
		}
		obj := named.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != protocolPath {
			return true
		}
		for _, elt := range lit.Elts {
			if _, ok := elt.(*ast.KeyValueExpr); !ok {
				pass.Reportf(lit.Pos(), "unkeyed composite literal of wire message %s.%s; positional fields break silently when the struct grows", obj.Pkg().Name(), obj.Name())
				break
			}
		}
		return true
	})
	return nil
}
