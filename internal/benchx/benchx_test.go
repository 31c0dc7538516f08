package benchx

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale(t *testing.T) Scale {
	t.Helper()
	return Scale{
		Domains:      []uint64{512},
		Owners:       3,
		OwnersSweep:  []int{3, 4},
		Threads:      []int{1, 2},
		DiskDir:      t.TempDir(),
		Fig5Leaves:   100_000,
		Fig5Fanout:   10,
		Table13Keys:  256,
		SweepQueries: 6,
	}
}

// TestExperimentsTable checks the index prism-bench is generated from:
// exactly the surviving names, each once and documented, "all" in table
// order, and every entry runnable at tinyScale with well-formed tables.
func TestExperimentsTable(t *testing.T) {
	want := "exp1 table12 exp2 exp3 exp4 sharegen table13 fanout domainscale memscale groupscale all"
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
	for _, gone := range []string{"throughput", "tcpthroughput", "streamscale", "gatewayscale", ""} {
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
	// And the rendered cell must carry it at adaptive resolution.
	for _, row := range tables[0].Rows {
		if row[1] == "PSI" && (row[4] == "0" || row[4] == "0.000") {
			t.Errorf("disk-backed exp1 PSI row renders fetch time as %q", row[4])
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

func TestDomainScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{2048}
	sc.ShardCells = 256
	tables, err := DomainScale(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 2 { // monolithic + sharded at one domain size
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	peak := map[string][2]string{}
	for _, row := range rows {
		if strings.Contains(row[2], "OVERFLOW") || strings.Contains(row[3], "OVERFLOW") {
			t.Errorf("%s mode overflowed at smoke scale: %v", row[1], row)
		}
		if row[4] == "0.0" {
			t.Errorf("%s mode reported zero throughput", row[1])
		}
		peak[row[1]] = [2]string{row[2], row[3]}
	}
	// The experiment's point: sharded frames must be strictly smaller
	// than monolithic ones during both outsourcing and querying.
	mono, sharded := peak["monolithic"], peak["sharded"]
	for i, phase := range []string{"outsource", "query"} {
		mb, errM := parseHumanBytes(mono[i])
		sb, errS := parseHumanBytes(sharded[i])
		if errM != nil || errS != nil {
			t.Fatalf("unparseable peak frame cells %q / %q", mono[i], sharded[i])
		}
		if sb >= mb {
			t.Errorf("%s peak frame: sharded %q not below monolithic %q", phase, sharded[i], mono[i])
		}
	}
}

func TestMemScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{8192}
	sc.ShardCells = 512
	tables, err := MemScale(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 2 { // monolithic/RAM + sharded/chunked at one domain
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	peak := map[string][2]string{}
	for _, row := range rows {
		if row[4] == "0.0" {
			t.Errorf("%s mode reported zero throughput", row[1])
		}
		peak[row[1]] = [2]string{row[2], row[3]}
	}
	// The second mode's results matched the baseline (divergence would
	// have failed MemScale outright).
	if rows[1][7] != "match" {
		t.Errorf("results column = %q, want match", rows[1][7])
	}
	// The query batch must have bumped the cells-processed counter.
	for _, row := range rows {
		if row[5] == "-" {
			t.Errorf("%s mode reported no cells/sec", row[1])
		}
	}
	// The experiment's point: the chunked segment store must hold far
	// less resident than the in-memory column sets, in both phases.
	ram, chunked := peak["monolithic/RAM"], peak["sharded/chunked disk"]
	for i, phase := range []string{"outsource", "query"} {
		rb, errR := parseHumanBytes(ram[i])
		cb, errC := parseHumanBytes(chunked[i])
		if errR != nil || errC != nil {
			t.Fatalf("unparseable resident cells %q / %q", ram[i], chunked[i])
		}
		if cb*4 > rb {
			t.Errorf("%s peak resident: chunked %q not well below RAM %q", phase, chunked[i], ram[i])
		}
	}
}

// parseHumanBytes inverts humanBytes for smoke assertions.
func parseHumanBytes(s string) (float64, error) {
	var v float64
	var unit string
	if _, err := fmt.Sscanf(s, "%f %s", &v, &unit); err != nil {
		return 0, err
	}
	switch unit {
	case "MiB":
		v *= 1 << 20
	case "KiB":
		v *= 1 << 10
	case "B":
	default:
		return 0, fmt.Errorf("unknown unit %q", unit)
	}
	return v, nil
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

func TestGroupScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{2048}
	tables, err := GroupScale(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (groups 1/2/4)", len(rows))
	}
	if rows[0][0] != "1" || rows[0][6] != "baseline" {
		t.Errorf("first row = %v, want the 1-group baseline", rows[0])
	}
	for _, row := range rows {
		// The query batch must have bumped the cells-processed counter.
		if row[2] == "-" {
			t.Errorf("groups=%s reported no cells/sec", row[0])
		}
	}
	for _, row := range rows[1:] {
		// Multi-group answers must be bit-identical to the single-group
		// baseline (divergence fails GroupScale outright).
		if row[6] != "match" {
			t.Errorf("groups=%s results column = %q, want match", row[0], row[6])
		}
		var speedup float64
		if _, err := fmt.Sscanf(strings.TrimSuffix(row[3], "×"), "%f", &speedup); err != nil {
			t.Fatalf("unparseable speedup %q: %v", row[3], err)
		}
	}
}
