package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeShape runs all four workloads and the traced pass in a few seconds.
var smokeShape = shape{
	Cells:        1 << 12,
	Owners:       3,
	KeysPerOwner: 409,
	CommonKeys:   8,
	ShardCells:   512,
	HotChunks:    256 << 20,
	DeltaMax:     64,
	Updates:      16,
	Setups:       1,
	Clients:      2,
	TracedRounds: 2,
}

// TestSmoke runs every workload end to end and traced, and checks that
// every name of the table comes out with a unit and a finite value, that
// no operation fails, and that the layer predictions of README hold.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			s, err := run(context.Background(), runConfig{
				w: w, sh: smokeShape, seed: 1, window: time.Second,
				endToEnd: true, traced: true, outDir: out,
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %s", s.Failed, s.Attempted, s.FirstError)
			}
			for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				got, ok := s.Metrics[def.Name]
				if !ok || got.Unit != def.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", def.Name, got, ok, def.Unit)
				}
			}
			for _, def := range endToEnd {
				if s.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", def.Name, s.Metrics[def.Name].Value)
				}
			}

			value := func(name string) float64 { return s.Metrics[name].Value }
			if (value("gateway_self_ms") > 0) != w.Gateway {
				t.Errorf("gateway_self_ms = %v on a workload with Gateway=%v", value("gateway_self_ms"), w.Gateway)
			}
			if (value("update_p50_ms") > 0) != w.Updates {
				t.Errorf("update_p50_ms = %v on a workload with Updates=%v", value("update_p50_ms"), w.Updates)
			}
			if !w.Updates && value("server_patch_ns_per_cell.psi") != 0 {
				t.Errorf("server_patch_ns_per_cell.psi = %v without updates", value("server_patch_ns_per_cell.psi"))
			}
			if !w.Disk && value("server_fetch_ns_per_cell.psi") != 0 {
				t.Errorf("server_fetch_ns_per_cell.psi = %v in memory", value("server_fetch_ns_per_cell.psi"))
			}
			switch hit := value("cache_hit_ratio"); {
			case !w.Hot && hit != 0:
				t.Errorf("cache_hit_ratio = %v with the cache off", hit)
			case w.Hot && !w.Updates && hit < 0.95:
				t.Errorf("cache_hit_ratio = %v with a warm cache and no writes", hit)
			}

			var buf bytes.Buffer
			if err := s.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var result map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("last line is not a JSON object: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := result[key]; !ok {
					t.Errorf("result line lacks %q", key)
				}
			}
			if len(result) != 4 || string(result["correct"]) != "true" {
				t.Errorf("result line has keys %v, correct=%s", len(result), result["correct"])
			}

			raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ Spans []span }
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			for _, sp := range doc.Spans {
				seen[sp.Name] = true
				if sp.EndNS < sp.StartNS {
					t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
				}
			}
			want := []string{"round", "op:psi", "backend:exec", "probe:server:psi", "probe:store:ReadU64Range", "probe:codec:psi_reply:encode=true"}
			if w.Gateway {
				want = append(want, "gateway:query")
			}
			if w.Updates {
				want = append(want, "op:update")
			}
			for _, name := range want {
				if !seen[name] {
					t.Errorf("trace has no %q span", name)
				}
			}
		})
	}
}

// TestManifest holds BENCHMARK.json to the name table and the name table
// to the driver's contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the name table; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	claim := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads; the contract allows 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		claim(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setup bool
	for _, def := range endToEnd {
		claim(def.Name)
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		setup = setup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if def.Bound == 0 {
			claim(def.Name)
		}
		if !unit.MatchString(def.Unit) || (def.Better != "lower" && def.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", def.Name, def.Unit, def.Better)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// TestCompare checks the verdicts and that spread is the driver's
// measure: statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestCompare(t *testing.T) {
	oneToTen := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := spread(oneToTen); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{10, 12}); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("spread(10, 12) = %v, want quantiles [9.5, 11, 12.5] → 3/11", got)
	}

	qps := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "round_p50_ms", Better: "lower", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{qps, steady(100), steady(103), "within"},
		{qps, steady(100), steady(80), "worse"},
		{qps, steady(100), steady(120), "better"},
		{lat, steady(100), steady(120), "worse"},
		{lat, steady(100), steady(80), "better"},
		{qps, []float64{60, 80, 100, 120, 140}, steady(100), "unresolved"},
	} {
		if got := judge(c.def, c.a, c.b).verdict; got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}
