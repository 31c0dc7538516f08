package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MetricNames guards the observability plane's two hand-maintained
// invariants. First, every metric registration must name its series
// with a constant from internal/telemetry's name table: the registry
// dedupes and type-checks series by name at runtime, so a literal or
// locally-built name silently forks the inventory (and the
// OPERATIONS.md runbook that documents it) from what the binary
// exposes. Second, every serverengine request handler — a handle*
// method taking a protocol *Request — must record an RPC latency
// observation via observeRPC, so prism_rpc_seconds stays a complete
// per-type latency census rather than whichever handlers remembered.
var MetricNames = &Analyzer{
	Name: "metricnames",
	Doc:  "metric series must be registered under telemetry name-table constants; every serverengine *Request handler must observe its RPC latency",
	Run:  runMetricNames,
}

// metricCtors are the telemetry constructors whose first argument is
// the series name.
var metricCtors = map[string]bool{
	"NewCounter":      true,
	"NewGauge":        true,
	"NewHistogram":    true,
	"NewCounterVec":   true,
	"NewGaugeVec":     true,
	"NewHistogramVec": true,
}

func runMetricNames(pass *Pass) error {
	if pass.Pkg.Path == telemetryPath {
		return nil // the name table and constructors live here
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != telemetryPath || !metricCtors[obj.Name()] {
				return true
			}
			if len(call.Args) == 0 {
				return true // malformed call; the type checker reports it
			}
			if !telemetryConstArg(info, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(), "telemetry.%s name %s is not a constant from the telemetry name table; register series under names.go constants so the inventory stays auditable", obj.Name(), types.ExprString(call.Args[0]))
			}
			return true
		})
	}
	if pass.Pkg.Path == serverEnginePath {
		checkRPCObservations(pass)
	}
	return nil
}

// telemetryConstArg reports whether e resolves to a constant declared
// in the telemetry package (the names.go table).
func telemetryConstArg(info *types.Info, e ast.Expr) bool {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return false
	}
	c, ok := obj.(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == telemetryPath
}

// checkRPCObservations flags serverengine handle* methods that take a
// protocol *Request but never start the RPC latency clock.
func checkRPCObservations(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "handle") {
				continue
			}
			req := requestParamName(info, fd)
			if req == "" {
				continue // e.g. handleListTables: no request payload to time
			}
			if !callsObserveRPC(info, fd.Body) {
				pass.Reportf(fd.Pos(), "handler %s takes protocol.%s but never records its RPC latency; defer e.observeRPC(...)() so prism_rpc_seconds covers every request type", fd.Name.Name, req)
			}
		}
	}
}

// requestParamName returns the name of the protocol *Request parameter
// a handler takes, or "" when it has none.
func requestParamName(info *types.Info, fd *ast.FuncDecl) string {
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		named := namedStruct(t)
		if named == nil {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == protocolPath && strings.HasSuffix(obj.Name(), "Request") {
			return obj.Name()
		}
	}
	return ""
}

// callsObserveRPC reports whether any call to an observeRPC method
// appears in the handler body (typically defer e.observeRPC(typ)()).
func callsObserveRPC(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := calleeObject(info, call); obj != nil && obj.Name() == "observeRPC" {
			found = true
			return false
		}
		return true
	})
	return found
}
