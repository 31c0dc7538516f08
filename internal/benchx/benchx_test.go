package benchx

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale(t *testing.T) Scale {
	t.Helper()
	return Scale{
		Domains:           []uint64{512},
		Owners:            3,
		OwnersSweep:       []int{3, 4},
		Threads:           []int{1, 2},
		DiskDir:           t.TempDir(),
		Fig5Leaves:        100_000,
		Fig5Fanout:        10,
		Table13Keys:       256,
		Inflight:          []int{1, 4},
		ThroughputQueries: 8,
		LinkRTT:           500 * time.Microsecond, // exercise the simulated-link path cheaply
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
	sc := tinyScale(t)
	tables := Exp4(sc)
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
	sc := tinyScale(t)
	tables := FanoutAblation(sc)
	if len(tables[0].Rows) != 7 {
		t.Fatalf("rows = %d, want 7 fanouts", len(tables[0].Rows))
	}
}

func TestThroughputSmoke(t *testing.T) {
	sc := tinyScale(t)
	tables, err := Throughput(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != len(sc.Inflight) {
		t.Fatalf("rows = %d, want %d concurrency points", len(rows), len(sc.Inflight))
	}
	for _, row := range rows {
		if row[4] != "0" {
			t.Errorf("in-flight %s: %s queries failed", row[0], row[4])
		}
		if row[1] == "0.0" {
			t.Errorf("in-flight %s: zero throughput", row[0])
		}
	}
}

func TestTCPThroughputSmoke(t *testing.T) {
	sc := tinyScale(t)
	tables, err := TCPThroughput(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// Two transport modes × the in-flight sweep.
	if want := 2 * len(sc.Inflight); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	modes := map[string]bool{}
	for _, row := range rows {
		modes[row[0]] = true
		if row[4] != "0" {
			t.Errorf("%s @%s: %s queries failed", row[0], row[1], row[4])
		}
		if row[2] == "0.0" {
			t.Errorf("%s @%s: zero throughput", row[0], row[1])
		}
	}
	if len(modes) != 2 {
		t.Errorf("transport modes = %v, want serialised + multiplexed", modes)
	}
}

func TestDomainScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{2048}
	sc.ShardCells = 256
	sc.ThroughputQueries = 6
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
	sc.ThroughputQueries = 6
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

func TestStreamScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{8192}
	sc.ShardCells = 512
	sc.ThroughputQueries = 12
	tables, err := StreamScale(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	row := rows[0]
	// The experiment's point: a single-tuple delta update must beat a
	// full re-outsource by a wide margin.
	var speedup float64
	if _, err := fmt.Sscanf(strings.TrimSuffix(row[3], "×"), "%f", &speedup); err != nil {
		t.Fatalf("unparseable speedup %q: %v", row[3], err)
	}
	if speedup < 2 {
		t.Errorf("update speedup %v over re-outsource, want well above 1", row[3])
	}
	if row[4] == "0.0" {
		t.Error("zero read throughput during the update stream")
	}
	// Parity survived compaction (divergence fails StreamScale outright).
	if row[7] != "match" {
		t.Errorf("results column = %q, want match", row[7])
	}
}

func TestGroupScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{2048}
	sc.ThroughputQueries = 6
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

// TestGatewayScaleSmoke runs the front-tier experiment at a reduced
// (but still concurrent) client sweep: the gateway rows must report a
// p99, answer bit-identically to the direct path, and the overload
// table must show typed sheds rather than a hang.
func TestGatewayScaleSmoke(t *testing.T) {
	sc := tinyScale(t)
	sc.Domains = []uint64{2048}
	sc.GatewayClients = []int{25, 100}
	tables, err := GatewayScale(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2 (scale + overload)", len(tables))
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("scale rows = %d, want 3 (direct + 2 client points)", len(rows))
	}
	if rows[0][0] != "direct" || rows[0][8] != "baseline" {
		t.Errorf("first row = %v, want the direct-path baseline", rows[0])
	}
	for _, row := range rows[1:] {
		if row[0] != "gateway" || row[8] != "match" {
			t.Errorf("gateway row = %v, want fingerprint match", row)
		}
		if row[5] == "-" {
			t.Errorf("clients=%s reported no p99", row[1])
		}
		if row[7] != "0" {
			t.Errorf("clients=%s shed %s queries with admission unlimited", row[1], row[7])
		}
	}
	over := tables[1].Rows
	if len(over) != 1 {
		t.Fatalf("overload rows = %d, want 1", len(over))
	}
	var shed int
	if _, err := fmt.Sscanf(over[0][2], "%d", &shed); err != nil || shed == 0 {
		t.Errorf("overload row = %v, want a non-zero typed shed count", over[0])
	}
	if over[0][6] != "shed, not hung" {
		t.Errorf("overload verdict = %q", over[0][6])
	}
}
