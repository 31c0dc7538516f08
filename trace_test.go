package prism

import (
	"context"
	"encoding/json"
	"testing"
)

// phaseSet collects the distinct span names of a trace, failing the test
// when the trace is missing.
func phaseSet(t *testing.T, sys *System, tid string) map[string]bool {
	t.Helper()
	if tid == "" {
		t.Fatal("query reported no trace id")
	}
	tr, ok := sys.QueryTrace(tid)
	if !ok {
		t.Fatalf("QueryTrace(%q) not found", tid)
	}
	phases := make(map[string]bool)
	for _, name := range tr.Phases() {
		phases[name] = true
	}
	return phases
}

// TestQueryTraceTimeline runs traced queries on a multi-group
// disk-backed deployment and checks the assembled timelines: a PSI must
// carry owner- and server-side phases; an extreme query must also carry
// the announcer's rounds — at least five distinct phases spanning all
// three planes.
func TestQueryTraceTimeline(t *testing.T) {
	cfg := shape{storage: "disk-nocache", shard: 32, groups: 2, owners: 3, b: 128}.config(t)
	cfg.Trace = true
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadPlanted(t, sys, plantedCells(sys, 5), 42)
	ctx := context.Background()

	psi, err := sys.PSI(ctx)
	if err != nil {
		t.Fatal(err)
	}
	phases := phaseSet(t, sys, psi.Stats.TraceID)
	for _, want := range []string{"owner:exchange", "server:rpc:psi", "server:fetch", "server:compute"} {
		if !phases[want] {
			t.Errorf("PSI trace missing phase %q (have %v)", want, phases)
		}
	}

	max, err := sys.PSIMax(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	phases = phaseSet(t, sys, max.Stats.TraceID)
	for _, want := range []string{
		"owner:exchange",        // owner plane
		"server:rpc:psi",        // server plane, PSI round
		"server:compute",        // server compute
		"server:announcer-wait", // server blocked on the announcer round
		"announcer:reduce",      // announcer plane, global reduce
	} {
		if !phases[want] {
			t.Errorf("extreme trace missing phase %q (have %v)", want, phases)
		}
	}
	if len(phases) < 5 {
		t.Errorf("extreme trace has %d distinct phases, want >= 5: %v", len(phases), phases)
	}

	// The timeline must dump as JSON with its spans intact.
	tr, _ := sys.QueryTrace(max.Stats.TraceID)
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID    string
		Spans []struct{ Name, Site string }
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != max.Stats.TraceID || len(decoded.Spans) == 0 {
		t.Fatalf("trace JSON round-trip lost data: %s", raw)
	}

	// Trace ids are listed oldest-first and retrievable until evicted.
	ids := sys.QueryTraceIDs()
	if len(ids) < 2 {
		t.Fatalf("expected at least 2 retained traces, got %v", ids)
	}
}

// TestUntracedQueriesStayClean checks the default path: without
// Config.Trace no trace ids are minted, no spans ride the wire, and the
// tracer stays empty.
func TestUntracedQueriesStayClean(t *testing.T) {
	sys := shape{groups: 2, owners: 3, b: 128}.system(t)
	loadPlanted(t, sys, plantedCells(sys, 5), 42)
	ctx := context.Background()
	psi, err := sys.PSI(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if psi.Stats.TraceID != "" {
		t.Errorf("untraced PSI reported trace id %q", psi.Stats.TraceID)
	}
	if len(psi.Stats.spans) != 0 {
		t.Errorf("untraced PSI carried %d spans", len(psi.Stats.spans))
	}
	if ids := sys.QueryTraceIDs(); len(ids) != 0 {
		t.Errorf("tracer retained %v for untraced queries", ids)
	}
}
