package prism

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDocsQuarantineReasons: the reasons OPERATIONS' "Quarantine
// handling" lists are exactly the string literals recovery passes to
// (*serverengine.Engine).quarantine, read from the package's source.
func TestDocsQuarantineReasons(t *testing.T) {
	dir := filepath.Join("internal", "serverengine")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var code []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "quarantine" || len(call.Args) < 3 {
				return true
			}
			lit, ok := call.Args[2].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: a quarantine reason that is not a string literal", fset.Position(call.Pos()))
				return true
			}
			reason, _ := strconv.Unquote(lit.Value)
			code = append(code, reason)
			return true
		})
	}

	raw, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	para := regexp.MustCompile(`(?s)\*\*Quarantine handling\.\*\*.*?reason \(([^)]*)\)`).FindSubmatch(raw)
	if para == nil {
		t.Fatal(`OPERATIONS.md has no "Quarantine handling" reason list`)
	}
	var doc []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllSubmatch(para[1], -1) {
		doc = append(doc, string(m[1]))
	}

	slices.Sort(code)
	code = slices.Compact(code)
	slices.Sort(doc)
	if len(code) == 0 || !slices.Equal(code, doc) {
		t.Errorf("OPERATIONS.md lists quarantine reasons %v; the code quarantines with %v", doc, code)
	}
}

// TestDocsGatewayCodes: the failure codes ARCHITECTURE's front-protocol
// paragraph lists are exactly the Code* constants of
// internal/gateway/frontproto.go, in the order they are declared.
func TestDocsGatewayCodes(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("internal", "gateway", "frontproto.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Code") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s: %s is not a string literal", fset.Position(name.Pos()), name.Name)
				}
				v, _ := strconv.Unquote(lit.Value)
				code = append(code, v)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	para := regexp.MustCompile(`(?s)\*\*Front protocol\*\*.*?failure codes \(([^)]*)\)`).FindSubmatch(raw)
	if para == nil {
		t.Fatal(`ARCHITECTURE.md has no front-protocol failure-code list`)
	}
	var doc []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllSubmatch(para[1], -1) {
		doc = append(doc, string(m[1]))
	}
	if len(code) == 0 || !slices.Equal(code, doc) {
		t.Errorf("ARCHITECTURE.md lists front-protocol failure codes %v; frontproto.go declares %v", doc, code)
	}
}

// TestDocsFlags: OPERATIONS' "Flag reference" has one `### <binary>`
// table per directory of cmd/, and each table's rows are exactly the
// flags that binary's main.go declares, a row's "(default X)" being the
// default -h prints (a non-zero default must be stated). Every
// backticked `-flag` in README and OPERATIONS names a declared flag.
func TestDocsFlags(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]map[string]string{} // binary → flag → default
	declared := map[string]bool{}
	for _, d := range dirs {
		if d.IsDir() {
			code[d.Name()] = declaredFlags(t, filepath.Join("cmd", d.Name(), "main.go"))
			for name := range code[d.Name()] {
				declared[name] = true
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`(?s)\n## Flag reference\n(.*?)\n## `).FindSubmatch(raw)
	if ref == nil {
		t.Fatal(`OPERATIONS.md has no "Flag reference" section`)
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z]+)` \\|(.*)\\|$")
	stated := regexp.MustCompile(`\(default ([^)]*)\)`)
	doc := map[string]bool{}
	for _, sec := range regexp.MustCompile(`(?m)^### `).Split(string(ref[1]), -1)[1:] {
		bin, body, _ := strings.Cut(sec, "\n")
		flags, ok := code[bin]
		if !ok {
			t.Errorf("OPERATIONS.md documents flags of %s, which cmd/ does not hold", bin)
			continue
		}
		doc[bin] = true
		rows := map[string]bool{}
		for _, m := range row.FindAllStringSubmatch(body, -1) {
			name, meaning := m[1], m[2]
			rows[name] = true
			def, ok := flags[name]
			if !ok {
				t.Errorf("%s: OPERATIONS.md documents -%s, which main.go does not declare", bin, name)
				continue
			}
			switch s := stated.FindStringSubmatch(meaning); {
			case s != nil && strings.Trim(s[1], "`") != def:
				t.Errorf("%s -%s: OPERATIONS.md says (default %s); the code's default is %q", bin, name, s[1], def)
			case s == nil && def != "" && def != "0" && def != "0s" && def != "false":
				t.Errorf("%s -%s: OPERATIONS.md does not state the default %q", bin, name, def)
			}
		}
		for name := range flags {
			if !rows[name] {
				t.Errorf("%s declares -%s, which OPERATIONS.md's flag reference has no row for", bin, name)
			}
		}
	}
	for bin := range code {
		if !doc[bin] {
			t.Errorf("OPERATIONS.md's flag reference has no table for %s", bin)
		}
	}

	for _, file := range []string{"README.md", filepath.Join("docs", "OPERATIONS.md")} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile("(?m)(?:^|[^`a-z])`-([a-z]+)`").FindAllSubmatch(raw, -1) {
			if !declared[string(m[1])] {
				t.Errorf("%s mentions -%s, which no cmd/ binary declares", file, m[1])
			}
		}
	}
}

// declaredFlags reads the flag.<Type>(name, default, usage) calls of a
// main.go and returns each flag's default as -h prints it, quotes aside.
func declaredFlags(t *testing.T, file string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		if !ok || name.Kind != token.STRING {
			t.Errorf("%s: a flag whose name is not a string literal", fset.Position(call.Pos()))
			return true
		}
		v := constValue(t, fset, call.Args[1])
		def := v.ExactString()
		switch {
		case sel.Sel.Name == "Duration":
			ns, _ := constant.Int64Val(v)
			def = time.Duration(ns).String()
		case v.Kind() == constant.String:
			def = constant.StringVal(v)
		}
		key, _ := strconv.Unquote(name.Value)
		flags[key] = def
		return true
	})
	return flags
}

// constValue evaluates a flag's default: literals, true and false,
// time's units and the arithmetic between them.
func constValue(t *testing.T, fset *token.FileSet, e ast.Expr) constant.Value {
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0)
	case *ast.Ident:
		if e.Name == "true" || e.Name == "false" {
			return constant.MakeBool(e.Name == "true")
		}
	case *ast.SelectorExpr:
		units := map[string]time.Duration{"Millisecond": time.Millisecond, "Second": time.Second, "Minute": time.Minute, "Hour": time.Hour}
		if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "time" && units[e.Sel.Name] != 0 {
			return constant.MakeInt64(int64(units[e.Sel.Name]))
		}
	case *ast.BinaryExpr:
		x, y := constValue(t, fset, e.X), constValue(t, fset, e.Y)
		if e.Op == token.SHL || e.Op == token.SHR {
			s, _ := constant.Uint64Val(y)
			return constant.Shift(x, e.Op, uint(s))
		}
		return constant.BinaryOp(x, e.Op, y)
	case *ast.ParenExpr:
		return constValue(t, fset, e.X)
	}
	t.Fatalf("%s: a flag default this test cannot evaluate", fset.Position(e.Pos()))
	return nil
}

// TestDocsMetricNames: the series OPERATIONS' "Key series" table lists
// are exactly the Metric* constants of internal/telemetry/names.go.
func TestDocsMetricNames(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("internal", "telemetry", "names.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Metric") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s: %s is not a string literal", fset.Position(name.Pos()), name.Name)
				}
				v, _ := strconv.Unquote(lit.Value)
				code = append(code, v)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	table := regexp.MustCompile(`(?s)\*\*Key series.*?\n\n(\|.*?)\n\n`).FindSubmatch(raw)
	if table == nil {
		t.Fatal(`OPERATIONS.md has no "Key series" table`)
	}
	var doc []string
	for _, line := range strings.Split(string(table[1]), "\n")[2:] {
		series, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range regexp.MustCompile("`(prism_[a-z_]+)").FindAllStringSubmatch(series, -1) {
			doc = append(doc, m[1])
		}
	}

	if len(code) == 0 {
		t.Fatal("names.go declares no Metric* constant")
	}
	for _, name := range code {
		if !slices.Contains(doc, name) {
			t.Errorf("names.go declares %s, which OPERATIONS.md's key series table has no row for", name)
		}
	}
	for _, name := range doc {
		if !slices.Contains(code, name) {
			t.Errorf("OPERATIONS.md lists %s, which names.go does not declare", name)
		}
	}
}
