package benchx

import (
	"context"
	"strings"
	"testing"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale(t *testing.T) Scale {
	t.Helper()
	return Scale{
		Domains:     []uint64{512},
		Owners:      3,
		OwnersSweep: []int{3, 4},
		Threads:     []int{1, 2},
		DiskDir:     t.TempDir(),
		Fig5Leaves:  100_000,
		Fig5Fanout:  10,
		Table13Keys: 256,
	}
}

// TestExperimentsTable checks the index prism-bench is generated from:
// exactly the surviving names, each once and documented, "all" in table
// order, and every entry runnable at tinyScale with well-formed tables.
func TestExperimentsTable(t *testing.T) {
	want := "exp1 table12 exp2 exp3 exp4 sharegen table13 fanout all"
	if got := ExperimentNames(" "); got != want {
		t.Fatalf("experiment names = %q, want %q", got, want)
	}
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Select(all) = %d experiments, err %v", len(all), err)
	}
	seen := map[string]bool{}
	for i, e := range Experiments {
		if all[i].Name != e.Name {
			t.Errorf("-exp all runs %q at position %d, table has %q", all[i].Name, i, e.Name)
		}
		if seen[e.Name] || e.Doc == "" {
			t.Errorf("experiment %q: duplicate name or empty doc", e.Name)
		}
		seen[e.Name] = true
		one, err := Select(strings.ToUpper(e.Name))
		if err != nil || len(one) != 1 || one[0].Name != e.Name {
			t.Errorf("Select(%q) = %v, %v", strings.ToUpper(e.Name), one, err)
		}
		tables, err := e.Run(context.Background(), tinyScale(t))
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if len(tables) == 0 {
			t.Errorf("%s returned no table", e.Name)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", e.Name, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Errorf("%s: row %v under %d headers", e.Name, row, len(tb.Headers))
				}
			}
		}
	}
	for _, gone := range []string{"throughput", "tcpthroughput", "streamscale", "gatewayscale", "domainscale", "memscale", "groupscale", ""} {
		if _, err := Select(gone); err == nil || !strings.Contains(err.Error(), ExperimentNames("|")) {
			t.Errorf("Select(%q) error = %v, want one listing the experiments", gone, err)
		}
	}
}

func TestBuildProducesWorkingSystem(t *testing.T) {
	sys, data, sg, err := Build(SystemSpec{Owners: 3, Domain: 256, KeysPerOwner: 40, CommonKeys: 5, Seed: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 {
		t.Fatalf("owners = %d", len(data))
	}
	if sg.TotalNS() == 0 {
		t.Error("share-generation stats empty")
	}
	r, err := RunOp(context.Background(), sys, "PSI", "DT")
	if err != nil {
		t.Fatal(err)
	}
	if r.ResultSize < 5 {
		t.Errorf("intersection %d smaller than planted 5", r.ResultSize)
	}
}

func TestRunOpAllOperators(t *testing.T) {
	sys, _, _, err := Build(SystemSpec{Owners: 3, Domain: 256, KeysPerOwner: 30, CommonKeys: 3, Seed: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, op := range append(Ops, "PSU Count", "PSI Min") {
		r, err := RunOp(ctx, sys, op, "DT")
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if r.WallNS <= 0 {
			t.Errorf("%s reported zero wall time", op)
		}
	}
	if _, err := RunOp(ctx, sys, "bogus", "DT"); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestExp1Smoke(t *testing.T) {
	sc := tinyScale(t)
	tables, err := Exp1(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	// 2 thread settings × 7 ops.
	if len(tables[0].Rows) != 14 {
		t.Errorf("rows = %d, want 14", len(tables[0].Rows))
	}
	// Disk-backed: the raw nanosecond stat must be nonzero (an SSD fetch
	// is sub-millisecond; asserting on a seconds-resolution string would
	// round it to zero — the old regression).
	sys, _, _, err := Build(SystemSpec{
		Owners: sc.Owners, Domain: sc.Domains[0], DiskDir: sc.DiskDir + "/exp1-raw",
		AggCols: []string{"DT", "PK"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunOp(context.Background(), sys, "PSI", "DT")
	if err != nil {
		t.Fatal(err)
	}
	if r.ServerFetchNS <= 0 {
		t.Errorf("disk-backed PSI reported ServerFetchNS = %d, want > 0", r.ServerFetchNS)
	}
	// And the rendered cell must carry it at adaptive resolution in the
	// table's first PSI row, the one that builds the epoch's owner sums;
	// later rows read the built sums and fetch nothing.
	for _, row := range tables[0].Rows {
		if row[1] == "PSI" {
			if row[4] == "0" || row[4] == "0.000" {
				t.Errorf("disk-backed exp1 PSI row renders fetch time as %q", row[4])
			}
			break
		}
	}
}

func TestTable12Smoke(t *testing.T) {
	tables, err := Table12(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 { // Sum + Max rows for one domain
		t.Errorf("rows = %d", len(tables[0].Rows))
	}
}

func TestExp2Smoke(t *testing.T) {
	tables, err := Exp2(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 8 { // 2 owner counts × 4 ops
		t.Errorf("rows = %d", len(tables[0].Rows))
	}
}

func TestExp3Smoke(t *testing.T) {
	tables, err := Exp3(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 6 {
		t.Errorf("rows = %d", len(tables[0].Rows))
	}
}

func TestExp4Fig5Shape(t *testing.T) {
	tables, err := Exp4(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// First row (100% fill): actual-with > actual-without (whole tree).
	if !(rows[0][1] > rows[0][2]) && !strings.HasPrefix(rows[0][1], "1") {
		t.Logf("full-fill row: %v", rows[0])
	}
}

func TestShareGenSmoke(t *testing.T) {
	tables, err := ShareGen(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 { // one domain × {verify off, on}
		t.Errorf("rows = %d", len(tables[0].Rows))
	}
}

func TestTable13Smoke(t *testing.T) {
	tables, err := Table13(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	foundPrism := false
	for _, row := range tables[0].Rows {
		if strings.HasPrefix(row[0], "Prism") {
			foundPrism = true
			if row[4] != "no" {
				t.Error("Prism must report no server communication")
			}
		}
	}
	if !foundPrism {
		t.Error("measured Prism row missing")
	}
}

func TestFanoutAblationSmoke(t *testing.T) {
	tables, err := FanoutAblation(context.Background(), tinyScale(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 7 {
		t.Fatalf("rows = %d, want 7 fanouts", len(tables[0].Rows))
	}
}

// TestFig5FullScale runs the actual 100M-leaf Figure 5 point for the
// sparse fills (cheap) and the analytic full fill.
func TestFig5FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := Fig5(100_000_000, 10, []float64{1, 0.0001}, "fig5-test")
	// Paper: 100% fill visits 111M nodes of the 100M-leaf tree.
	if pts[0].ActualWith != 111_111_111 {
		t.Errorf("full fill visited %d, want 111111111", pts[0].ActualWith)
	}
	// Paper: 0.01%% fill (10K leaves) → ~400K actual domain.
	if pts[1].ActualWith < 100_000 || pts[1].ActualWith > 800_000 {
		t.Errorf("sparse fill visited %d, want a few hundred thousand (paper: ~400K)", pts[1].ActualWith)
	}
}
