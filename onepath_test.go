package prism

import (
	"strings"
	"sync"
	"testing"

	"prism/internal/analysis"
)

// shapeFindings runs prism-vet's shape table over the module once.
var shapeFindings = sync.OnceValues(func() ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.LoadModule(".")
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, []*analysis.Analyzer{analysis.Shape})
})

// shapeView fails t with each finding of the named shape rows
// (internal/analysis/shape.go), which hold the rules and their reasons.
func shapeView(t *testing.T, rows ...string) {
	diags, err := shapeFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		for _, row := range rows {
			if strings.HasPrefix(d.Message, row+":") {
				t.Error(d)
			}
		}
	}
}

// TestQueryScriptLivesInExec keeps "which rounds make up a query" in one
// place, internal/ownerengine/exec.go: only it calls a round or builds
// the extreme reduce, it fans a query out to the groups once, and one
// type implements gateway.Backend.
func TestQueryScriptLivesInExec(t *testing.T) {
	shapeView(t, "query-rounds", "extreme-reduce", "query-fanout", "one-backend")
}

// TestWholeTableIsAWindow keeps "the whole table" a property of a
// request's range, never a mode, and one group the N = 1 case: no wire
// mode, Range.Sharded only in Engine.window, no len(o.groups) fork, no
// whole-table Count comparison outside Engine.absorbShard, and one PSU
// mask label.
func TestWholeTableIsAWindow(t *testing.T) {
	shapeView(t, "wire-mode", "sharded", "one-group-fork", "whole-table-count", "psu-label")
}
