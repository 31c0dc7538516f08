package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockScope flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held in the engine packages (serverengine,
// ownerengine, announcer). A transport call, channel operation or
// sleep under a lock turns one slow peer into a stalled engine — and
// this exact class of bug (lock held across a slow re-snapshot) is
// what PR 5's manifest hardening fixed by hand. The check is
// intra-procedural and syntactic over lock/unlock pairs: Lock()/RLock()
// on a sync mutex opens a held region, the matching Unlock()/RUnlock()
// closes it, and a deferred unlock holds to the end of the function.
// Blocking operations recognised inside a held region:
//
//   - any call into internal/transport (Client.Call, dials, serves)
//   - channel sends, channel receives and select statements
//   - time.Sleep and sync WaitGroup/Cond Wait
//
// Function literals are not descended into (they run later, usually
// off-goroutine). Audited sites carry //prism:allow lockscope with a
// reason.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "no transport calls, channel operations or sleeps while an engine mutex is held",
	Run:  runLockScope,
}

var lockScopePkgs = []string{"serverengine", "ownerengine", "announcer"}

func runLockScope(pass *Pass) error {
	if !pkgUnder(pass.Pkg.Path, "prism/internal", lockScopePkgs...) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ls := &lockScopeCheck{pass: pass}
				ls.stmts(fd.Body.List, map[string]token.Pos{})
			}
		}
	}
	return nil
}

type lockScopeCheck struct {
	pass *Pass
}

// lockOp classifies a statement-level call as a mutex acquire/release.
func (ls *lockScopeCheck) lockOp(e ast.Expr) (recv string, acquire, release bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	obj := calleeObject(ls.pass.Pkg.Info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch obj.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, false
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

// stmts walks a statement list, maintaining the set of held locks
// (name → acquisition position). Branch bodies get a copy of the set,
// so an early-unlock-and-return branch does not release the lock for
// the statements after the branch.
func (ls *lockScopeCheck) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range list {
		ls.stmt(stmt, held)
	}
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (ls *lockScopeCheck) stmt(stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, acquire, release := ls.lockOp(s.X); acquire {
			ls.exprs(held, s.X) // the acquire itself may have blocking args
			held[recv] = s.Pos()
			return
		} else if release {
			delete(held, recv)
			return
		}
		ls.exprs(held, s.X)
	case *ast.DeferStmt:
		// A deferred unlock releases at return: the lock stays held for
		// the rest of the function, which the held set already models.
		// Other deferred calls run after the deferred unlock (LIFO) or
		// at panic time; either way they are not flagged here.
	case *ast.GoStmt:
		ls.exprs(held, s.Call.Args...) // args evaluate synchronously
	case *ast.SendStmt:
		if pos, lock := ls.anyHeld(held); lock != "" {
			ls.pass.Reportf(s.Arrow, "channel send while %q is held (acquired line %d)", lock, ls.line(pos))
		}
		ls.exprs(held, s.Chan, s.Value)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			ls.exprs(held, rhs)
		}
	case *ast.DeclStmt:
		if len(held) > 0 {
			ast.Inspect(s, func(n ast.Node) bool { return ls.inspectNode(n, held) })
		}
	case *ast.ReturnStmt:
		ls.exprs(held, s.Results...)
	case *ast.IfStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		ls.exprs(held, s.Cond)
		ls.stmts(s.Body.List, clone(held))
		if s.Else != nil {
			ls.stmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.exprs(held, s.Cond)
		}
		body := clone(held)
		ls.stmts(s.Body.List, body)
		if s.Post != nil {
			ls.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		ls.exprs(held, s.X)
		ls.stmts(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.exprs(held, s.Tag)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				ls.exprs(held, cc.List...)
				ls.stmts(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				ls.stmts(cc.Body, clone(held))
			}
		}
	case *ast.SelectStmt:
		if pos, lock := ls.anyHeld(held); lock != "" {
			ls.pass.Reportf(s.Pos(), "select while %q is held (acquired line %d)", lock, ls.line(pos))
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				ls.stmts(cc.Body, clone(held))
			}
		}
	case *ast.BlockStmt:
		ls.stmts(s.List, held)
	case *ast.LabeledStmt:
		ls.stmt(s.Stmt, held)
	}
}

// exprs inspects expressions for blocking operations while locks are
// held.
func (ls *lockScopeCheck) exprs(held map[string]token.Pos, list ...ast.Expr) {
	if len(held) == 0 {
		return
	}
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool { return ls.inspectNode(n, held) })
	}
}

// inspectNode reports blocking operations found inside an expression
// tree; returns false to stop descending (function literals).
func (ls *lockScopeCheck) inspectNode(n ast.Node, held map[string]token.Pos) bool {
	if len(held) == 0 {
		return false
	}
	pos, lock := ls.anyHeld(held)
	switch n := n.(type) {
	case *ast.FuncLit:
		return false // runs later, not under this lock frame
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			ls.pass.Reportf(n.Pos(), "channel receive while %q is held (acquired line %d)", lock, ls.line(pos))
		}
	case *ast.CallExpr:
		info := ls.pass.Pkg.Info
		obj := calleeObject(info, n)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch {
		case obj.Pkg().Path() == transportPath:
			ls.pass.Reportf(n.Pos(), "transport call %s while %q is held (acquired line %d); release the lock before going to the network", obj.Name(), lock, ls.line(pos))
		case obj.Pkg().Path() == "time" && obj.Name() == "Sleep":
			ls.pass.Reportf(n.Pos(), "time.Sleep while %q is held (acquired line %d)", lock, ls.line(pos))
		case obj.Pkg().Path() == "sync" && obj.Name() == "Wait":
			ls.pass.Reportf(n.Pos(), "sync %s.Wait while %q is held (acquired line %d)", types.ExprString(n.Fun), lock, ls.line(pos))
		}
	}
	return true
}

// anyHeld returns one held lock (the diagnostic anchor) or "".
func (ls *lockScopeCheck) anyHeld(held map[string]token.Pos) (token.Pos, string) {
	var bestName string
	var bestPos token.Pos
	for name, pos := range held {
		if bestName == "" || pos < bestPos {
			bestName, bestPos = name, pos
		}
	}
	return bestPos, bestName
}

func (ls *lockScopeCheck) line(pos token.Pos) int {
	return ls.pass.Pkg.Fset.Position(pos).Line
}
