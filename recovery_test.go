package prism

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// recoveryConfig is the shared deployment shape of the restart tests:
// disk-backed, sharded, chunk-aligned, with a bounded hot-chunk cache —
// the configuration the OPERATIONS runbook recommends for production.
func recoveryConfig(t *testing.T, diskDir string) Config {
	t.Helper()
	dom, err := IntDomain(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Owners:      3,
		Domain:      dom,
		AggColumns:  []string{"v"},
		MaxAggValue: 50_000,
		Verify:      true,
		Seed:        [32]byte{21, 8, 7},
		DiskDir:     diskDir,
		ShardCells:  64,
		ChunkCells:  64,
		HotChunks:   1 << 16,
	}
}

// loadRecoveryRows loads deterministic random rows into every owner.
func loadRecoveryRows(t *testing.T, sys *System) {
	t.Helper()
	rng := rand.New(rand.NewSource(1807))
	for j := 0; j < sys.Owners(); j++ {
		rows := []Row{{IntKey: 1, Aggs: map[string]uint64{"v": 500}}} // guaranteed-common key
		for i := 0; i < 40; i++ {
			rows = append(rows, Row{
				IntKey: uint64(rng.Int63n(256)) + 1,
				Aggs:   map[string]uint64{"v": uint64(rng.Int63n(1000))},
			})
		}
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
}

// queryFingerprint canonically serialises the semantic results of a
// mixed query workload (PSI, PSU, counts, verified sums) so pre- and
// post-restart serving can be compared exactly.
func queryFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	ctx := context.Background()
	var sb strings.Builder

	psi, err := sys.PSI(ctx)
	if err != nil {
		t.Fatalf("PSI: %v", err)
	}
	fmt.Fprintf(&sb, "psi:%v\n", psi.Cells)
	if psi.Stats.ServerFetchNS == 0 {
		t.Error("disk-backed PSI reported zero fetch time")
	}

	psu, err := sys.PSU(ctx)
	if err != nil {
		t.Fatalf("PSU: %v", err)
	}
	fmt.Fprintf(&sb, "psu:%v\n", psu.Cells)

	cnt, err := sys.PSICount(ctx)
	if err != nil {
		t.Fatalf("PSICount: %v", err)
	}
	fmt.Fprintf(&sb, "count:%d\n", cnt.Count)

	ucnt, err := sys.PSUCount(ctx)
	if err != nil {
		t.Fatalf("PSUCount: %v", err)
	}
	fmt.Fprintf(&sb, "psucount:%d\n", ucnt.Count)

	sum, err := sys.PSISum(ctx, "v")
	if err != nil {
		t.Fatalf("PSISum: %v", err)
	}
	cells := append([]uint64(nil), sum.Cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	for _, c := range cells {
		v, _ := sum.Sum("v", c)
		fmt.Fprintf(&sb, "sum:%d=%d\n", c, v)
	}
	return sb.String()
}

// TestAutoRecoverNeedsDiskDir: AutoRecover without a disk store is a
// misconfiguration that must fail loudly, not boot an empty system.
func TestAutoRecoverNeedsDiskDir(t *testing.T) {
	cfg := recoveryConfig(t, t.TempDir())
	cfg.DiskDir = ""
	cfg.AutoRecover = true
	if _, err := NewLocalSystem(cfg); err == nil {
		t.Fatal("AutoRecover without DiskDir did not error")
	}
}

// TestServerRestartRecovery is the kill-and-restart integration test of
// the cold-boot recovery path: a disk-backed deployment is torn down
// mid-life and rebuilt over the same stores with Config.AutoRecover —
// the restarted servers must reload every table from their disk
// manifests and serve identical query fingerprints without any owner
// re-outsourcing; a corrupt table must be quarantined with a reported
// reason rather than served or crashing boot.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t, dir)
	sys1, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadRecoveryRows(t, sys1)
	if _, err := sys1.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(t, sys1)

	// "Kill" the deployment (drop every in-memory engine) and boot a
	// fresh one over the same stores. No Load, no OutsourceAll.
	cfg2 := cfg
	cfg2.AutoRecover = true
	sys2, err := NewLocalSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for phi := 0; phi < 3; phi++ {
		rep, err := sys2.ServerEngine(phi).RecoveryReport()
		if err != nil {
			t.Fatalf("server %d recovery: %v", phi, err)
		}
		if len(rep.Recovered) != 1 || rep.Recovered[0].Name != "main" ||
			len(rep.Recovered[0].Owners) != cfg.Owners {
			t.Fatalf("server %d recovery report = %+v", phi, rep)
		}
		if len(rep.Quarantined) != 0 {
			t.Fatalf("server %d quarantined healthy tables: %+v", phi, rep.Quarantined)
		}
	}
	if got := queryFingerprint(t, sys2); got != want {
		t.Fatalf("query fingerprints diverged across restart:\n--- before ---\n%s--- after ---\n%s", want, got)
	}

	// The owners' cheap probe answers "still served" without a single
	// column byte moving.
	served, statuses, err := sys2.Owner(0).Engine().TableServed(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatalf("TableServed = false after recovery (statuses %+v)", statuses)
	}
	for phi, st := range statuses {
		if st == nil || st.Epoch == 0 {
			t.Fatalf("server %d status = %+v, want persisted epoch", phi, st)
		}
	}

	// Corrupt one chunk segment on server 0 and boot again: the table is
	// quarantined there — with a machine-readable reason — while boot
	// succeeds and the other servers keep their copies.
	chunkFile := filepath.Join(dir, "server-0", "main", "o0.chi.colv2", "c0.ck")
	raw, err := os.ReadFile(chunkFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(chunkFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sys3, err := NewLocalSystem(cfg2)
	if err != nil {
		t.Fatalf("boot with a corrupt table must not fail: %v", err)
	}
	rep, err := sys3.ServerEngine(0).RecoveryReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "column-corrupt" {
		t.Fatalf("server 0 report = %+v, want one column-corrupt quarantine", rep)
	}
	if len(rep.Recovered) != 0 {
		t.Fatalf("server 0 served a corrupt table: %+v", rep.Recovered)
	}
	for phi := 1; phi < 3; phi++ {
		rep, err := sys3.ServerEngine(phi).RecoveryReport()
		if err != nil || len(rep.Recovered) != 1 {
			t.Fatalf("server %d lost its healthy copy: %+v (%v)", phi, rep, err)
		}
	}
	// Queries now fail loudly (server 0 no longer serves the table)
	// instead of returning wrong results.
	if _, err := sys3.PSI(context.Background()); err == nil {
		t.Fatal("PSI over a quarantined table succeeded")
	}
	// The probe tells the owner re-outsourcing is needed.
	served, _, err = sys3.Owner(0).Engine().TableServed(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Fatal("TableServed = true with a quarantined copy")
	}
	// Re-outsourcing restores full service over the quarantine-freed name.
	loadRecoveryRows(t, sys3)
	if _, err := sys3.OutsourceAll(context.Background()); err != nil {
		t.Fatalf("re-outsource after quarantine: %v", err)
	}
	if got := queryFingerprint(t, sys3); got != want {
		t.Fatal("fingerprint diverged after quarantine + re-outsource")
	}
}
