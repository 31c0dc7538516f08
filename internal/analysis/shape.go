package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

// Shape holds the code-shape rules that keep the paper's two owner↔server
// rounds, shares drawn only from strong randomness, and the one-path
// deletions in place: one row of shapeRules each, a bound on the sites
// its matcher finds in the module's non-test source. A row over its bound
// reports every site past it; //prism:allow does not exempt a row.
var Shape = &Analyzer{
	Name: "shape",
	Doc:  "code-shape rules, one table row each: no more sites than the row's bound",
	Run:  runShape,
}

// A shapeRule bounds the sites match finds. in and out are regexps over
// a site's place, "dir/file.go#Func" (Func is "Recv.Name" for a method,
// empty outside a function): a site counts when in matches it ("" = all
// but benchmark/, a separate module) and out ("" = none) does not.
type shapeRule struct {
	name    string
	in, out string
	match   matcher
	bound   int
	reason  string
}

var shapeRules = []shapeRule{
	{"wire-mode", "", "", ident(`^wire$`), 0,
		"the whole table is a window: owners stamp a range on every request, so nothing is a wire mode (PR 21)"},
	{"sharded", "", `#Engine\.window$`, call(`\.Sharded$`), 0,
		"handlers see only a range; Engine.window alone turns a zero range into {0, b} (PR 21)"},
	{"one-group-fork", "", "", compare(`^len\(o\.groups\)$`, `^[0-9]`), 0,
		"one group is the N = 1 case of every fan-out, merge and error tag (PR 21, PR 34)"},
	{"whole-table-count", `^internal/serverengine/`, `#Engine\.absorbShard$`, compare(`\.Count$`, `^(b|cells|.*\.B)$`), 0,
		"a permuted reply, fetch or cache entry has no whole-table mode; only absorbShard adopts a whole-window upload (PR 21)"},
	{"psu-label", "", "", str(`psup`), 0,
		"PSU masks have one label (PR 21)"},
	{"group-0-names", "", "", str(`^"(server/%d"|server-%d|owner\.view")`), 0,
		"every group, the first included, is named g<g>/server/<i>, g<g>-server-<i> and owner-g<g>.view (PR 34)"},
	{"wire-messages", `^internal/protocol/protocol\.go#Messages$`, "", lit(`^protocol\.`, false), 37,
		"the wire vocabulary of frame version 4; any change to it is a new frame version"},
	{"psi-verify", "", "", ident(`PSIVerify|VerifyPSI`), 0,
		"PSI's proof vector rides PSIReply.Vout: a verified query is at most two request types (PR 22)"},
	{"update-window-plan", `^internal/ownerengine/update\.go#`, "", call(`(^|\.)forEachShard$|^o\.plan$`), 0,
		"an update is one StoreDeltaRequest per server, whatever the window size (PR 23)"},
	{"layout-names", `^internal/serverengine/`, "", str(`^"vsum\.`), 3,
		"a layout column name is spelled where the layout is defined, mapped from the wire and read by the aggregation kernel, not again to validate a delta (PR 23)"},
	{"owner-mulmod", `^internal/ownerengine/`, "", call(`^modmath\.MulMod$`), 0,
		"the owner's merge loops reduce by η and δ with precomputed reducers, not a 128-by-64 division per cell (PR 25)"},
	{"owner-sum", `^internal/serverengine/`, "", call(`^field\.AddVecLazy$`), 1,
		"the server adds the owners' shares in one place, the epoch's owner-sum build; every kernel reads one summed vector (PR 28)"},
	{"overlay-landing", `^internal/serverengine/`, "", call(`\.landing$`), 1,
		"the overlay lands in a fetch in one place, the merge's hits (PR 29)"},
	{"owner-api", `^internal/ownerengine/`, "", decl(`^Owner\.[A-Z]\w*\(\)$`), 13,
		"an Owner is a placement layer, not a per-round API (PR 30)"},
	{"query-fanout", `^internal/ownerengine/exec\.go#`, "", call(`(^|\.)eachGroup$`), 1,
		"every group runs a query's whole round script under Exec's single fan-out (PR 30)"},
	{"query-rounds", "", `^internal/ownerengine/exec\.go#`, call(`\.(SetResult|BucketResult|Aggregate|localValues|SubmitExtreme|FetchExtreme|SubmitClaim|FetchClaims)$`), 0,
		"only ownerengine.Exec runs a query's rounds; a front door calls Exec (PR 19, PR 30)"},
	{"extreme-reduce", "", `^internal/ownerengine/exec\.go#|^internal/protocol/`, lit(`^protocol\.ExtremeReduceRequest$`, false), 0,
		"only ownerengine.Exec runs the global extreme reduce (PR 16, PR 19)"},
	{"one-backend", "", "", implements(gatewayPath, "Backend"), 1,
		"one gateway.Backend, EngineBackend: the backend that ships is the one the tests and benchmarks run (PR 19)"},
	{"gob-off-the-wire", "", `^internal/viewio/`, str(`^"encoding/gob"$`), 0,
		"one binary codec writes every frame; gob reads only view files, which never cross a connection (PR 31)"},
	{"config-knobs", `^\w+\.go#`, "", decl(`^Config\.[A-Z]\w*$`), 16,
		"a Config a reader can hold in their head: exported prism.Config fields (PR 32, PR 36)"},
	{"set-round", `^internal/ownerengine/`, "", lit(`^protocol\.(PSI|Count|PSU)Request$`, false), 3,
		"round 1 of every set kind and §6.6 bucket level is setRound's one request per window (PR 33)"},
	{"owner-dataset", `^internal/ownerengine/`, "", decl(`^(splitData|engine\.(Load|Data))\(\)$`), 0,
		"an owner's tuples and per-cell tables live once, on the Owner; group engines read their slice (PR 48)"},
	{"cryptorand", `^internal/(share|prg|perm|params|opoly|field|modmath)/`, "", str(`^"math/rand(/v2)?"$`), 0,
		"secret-share code draws randomness from crypto/rand or the seeded PRG; a math/rand draw voids the security argument (PR 8)"},
	{"keyedwire", ".", "", lit(`^protocol\.`, true), 0,
		"wire structs grow fields; a positional literal binds values to the wrong fields after a reorder (PR 8)"},
	{"unsafe-import", "", "", str(`^"unsafe"$`), 1,
		"one unsafe conversion, the codec's borrow helper: a full-width share vector aliases its frame; every other byte is decoded by copy"},
	{"test-hooks", "", "", decl(`^System\.(interceptGroupServer|restoreGroupServer)\(\)$`), 0,
		"a hook that rewires a live server is a man-in-the-middle seam: it is declared in a _test.go file, so no production code can call it (PR 8)"},
}

func runShape(pass *Pass) error {
	if pass.Pkg != pass.All[0] {
		return nil // the rows count across the whole run, once
	}
	sites := make([][]token.Pos, len(shapeRules))
	for _, pkg := range pass.All {
		dir := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, "prism"), "/")
		if dir == "internal/analysis" {
			continue // the table spells what it bounds
		}
		p := *pass
		p.Pkg = pkg
		for _, f := range pkg.Files {
			file := path.Join(dir, filepath.Base(pkg.Fset.Position(f.Package).Filename))
			ast.Inspect(f, func(n ast.Node) bool {
				for i, r := range shapeRules {
					r.match(&p, n, func(pos token.Pos) {
						if r.covers(file + "#" + enclosing(f, pos)) {
							sites[i] = append(sites[i], pos)
						}
					})
				}
				return true
			})
		}
	}
	for i, r := range shapeRules {
		for _, pos := range sites[i][min(r.bound, len(sites[i])):] {
			pass.Reportf(pos, "%s: %d sites, bound %d: %s", r.name, len(sites[i]), r.bound, r.reason)
		}
	}
	return nil
}

func (r *shapeRule) covers(place string) bool {
	in := r.in == "" && !strings.HasPrefix(place, "benchmark/") || r.in != "" && regexp.MustCompile(r.in).MatchString(place)
	return in && (r.out == "" || !regexp.MustCompile(r.out).MatchString(place))
}

// enclosing names the function declaration of f holding pos, if any.
func enclosing(f *ast.File, pos token.Pos) string {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return funcName(fd)
		}
	}
	return ""
}

// funcName is "Name" for a function, "Recv.Name" for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + fd.Name.Name
}

// A matcher calls site for each site node n holds.
type matcher func(p *Pass, n ast.Node, site func(token.Pos))

// node matches the nodes of type T whose text matches pat.
func node[T ast.Node](pat string, text func(*Pass, T) string) matcher {
	re := regexp.MustCompile(pat)
	return func(p *Pass, n ast.Node, site func(token.Pos)) {
		if n, ok := n.(T); ok && re.MatchString(text(p, n)) {
			site(n.Pos())
		}
	}
}

// call matches calls by the callee as written ("field.AddVecLazy").
func call(pat string) matcher {
	return node(pat, func(_ *Pass, c *ast.CallExpr) string { return types.ExprString(c.Fun) })
}

// ident matches identifiers by name: declared, used or selected.
func ident(pat string) matcher {
	return node(pat, func(_ *Pass, id *ast.Ident) string { return id.Name })
}

// str matches basic literals by their source, a string's (an import
// path's too) quoted.
func str(pat string) matcher {
	return node(pat, func(_ *Pass, l *ast.BasicLit) string { return l.Value })
}

// lit matches composite literals by type ("protocol.Range"), elided
// types included; positional, only those whose fields are not keyed.
func lit(pat string, positional bool) matcher {
	return node(pat, func(p *Pass, l *ast.CompositeLit) string {
		if positional {
			if len(l.Elts) == 0 {
				return ""
			}
			if _, keyed := l.Elts[0].(*ast.KeyValueExpr); keyed {
				return ""
			}
		}
		return types.TypeString(p.Pkg.Info.TypeOf(l), func(q *types.Package) string { return q.Name() })
	})
}

// decl matches declarations by name: "F()" for a function, "T.M()" for
// a method, "T.F" for a field of struct type T.
func decl(pat string) matcher {
	re := regexp.MustCompile(pat)
	return func(_ *Pass, n ast.Node, site func(token.Pos)) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if re.MatchString(funcName(n) + "()") {
				site(n.Name.Pos())
			}
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if re.MatchString(n.Name.Name + "." + id.Name) {
							site(id.Pos())
						}
					}
				}
			}
		}
	}
}

// compare matches comparisons (==, !=, <, <=, >, >=) of an expression whose
// source matches x with one whose source matches y, either way round.
func compare(x, y string) matcher {
	rx, ry := regexp.MustCompile(x), regexp.MustCompile(y)
	return func(_ *Pass, n ast.Node, site func(token.Pos)) {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op.Precedence() != 3 {
			return
		}
		l, r := types.ExprString(b.X), types.ExprString(b.Y)
		if rx.MatchString(l) && ry.MatchString(r) || rx.MatchString(r) && ry.MatchString(l) {
			site(b.Pos())
		}
	}
}

// implements matches the concrete types that implement the interface
// pkg.name, a package of the same run.
func implements(pkg, name string) matcher {
	return node(".", func(p *Pass, ts *ast.TypeSpec) string {
		t := p.Pkg.Info.Defs[ts.Name].Type()
		for _, q := range p.All {
			if q.Path == pkg && !types.IsInterface(t) {
				iface := q.Types.Scope().Lookup(name).Type().Underlying().(*types.Interface)
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					return ts.Name.Name
				}
			}
		}
		return ""
	})
}
