package prism

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
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
