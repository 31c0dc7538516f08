package prism

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/sharestore"
)

// servedStatus asks group 0's servers for their table inventories
// (ListTablesGroup, what prism-owner -op list prints) and returns each
// server's status of table, nil where it does not serve the table with
// every owner registered.
func servedStatus(t *testing.T, sys *System, table string) []*protocol.TableStatus {
	t.Helper()
	lists, err := sys.Owner(0).Engine().ListTablesGroup(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*protocol.TableStatus, len(lists))
	for phi, tables := range lists {
		for i, st := range tables {
			if st.Spec.Name == table && len(st.Owners) == len(sys.owners) {
				out[phi] = &tables[i]
			}
		}
	}
	return out
}

// recoveryConfig is the shared deployment shape of the restart tests:
// disk-backed, in 64-cell windows (so 64-cell chunks) — the
// configuration the OPERATIONS runbook recommends for production.
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
		MaxAggValue: 200_000, // median totals of loadPlanted's ≤ 3 tuples × 50 000
		Verify:      true,
		Seed:        [32]byte{21, 8, 7},
		DiskDir:     diskDir,
		ShardCells:  64,
	}
}

// TestMixedChunkGeometries: owners whose columns were written with
// different chunk sizes — owner 0 by a System in 16-cell windows (so
// 16-cell chunks), owner 1 re-outsourced after the System restarted in
// 32-cell windows — still answer every kind as the oracle does: the
// owner sum is built one owner-0 chunk range at a time, one cell range
// across owners, never "chunk k" of each. The second case sets the
// deprecated Config.HotChunks, as a config written for the retired chunk
// cache does; nothing reads it, so it must answer alike.
func TestMixedChunkGeometries(t *testing.T) {
	for _, hot := range []uint64{0, 1 << 16} {
		t.Run(fmt.Sprintf("hotchunks=%d", hot), func(t *testing.T) {
			dir := t.TempDir()
			sh := shape{storage: "disk", shard: 16, groups: 1, owners: 3, k: 5, b: 64}
			cfg := sh.config(t)
			cfg.DiskDir, cfg.HotChunks = dir, hot
			sys1, err := NewLocalSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			orc := loadPlanted(t, sys1, plantedCells(sys1, sh.k), 2816)
			sys1.Close()

			cfg.ShardCells = 32
			sys2, err := NewLocalSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys2.Close)
			orc.reload(t, sys2)
			if _, err := sys2.Owner(1).Outsource(context.Background()); err != nil {
				t.Fatal(err)
			}
			st, err := sharestore.Open(filepath.Join(dir, serverDiskDir(0, 0)))
			if err != nil {
				t.Fatal(err)
			}
			// Owner 1's re-outsource went to its other column slot.
			for owner, col := range []string{"o0.chi", "pend1.chi", "o2.chi"} {
				want := []uint64{16, 32, 16}[owner]
				info, err := st.Stat(tableName, col)
				if err != nil || info.ChunkCells != want {
					t.Fatalf("owner %d's χ column has %d-cell chunks (%v), want %d", owner, info.ChunkCells, err, want)
				}
			}
			directAnswers(t, sys2, orc)
		})
	}
}

// TestStoreEpochFailsNewLocalSystem: a System over a DiskDir one of
// whose stores holds a manifest of another format version does not
// build; the error names the server and the table.
func TestStoreEpochFailsNewLocalSystem(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t, dir)
	sys1, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadPlanted(t, sys1, plantedCells(sys1, 5), 1807)
	sys1.Close()
	st, err := sharestore.Open(filepath.Join(dir, serverDiskDir(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var man serverengine.TableManifest
	if err := st.ReadManifest(tableName, &man); err != nil {
		t.Fatal(err)
	}
	man.Version = 3
	if err := st.WriteManifest(tableName, man); err != nil {
		t.Fatal(err)
	}
	sys2, err := NewLocalSystem(cfg)
	if err == nil {
		sys2.Close()
	}
	want := fmt.Sprintf("group 0 server 1 recovery: %v: table %q has manifest version 3", serverengine.ErrStoreEpoch, tableName)
	if !errors.Is(err, serverengine.ErrStoreEpoch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewLocalSystem: %v; want an error containing %q", err, want)
	}
}

// TestServerRestartRecovery is the kill-and-restart integration test of
// the cold-boot recovery path: a disk-backed deployment is torn down
// mid-life and rebuilt over the same stores — the restarted servers
// must reload every table from their disk manifests and answer every
// kind as the oracle does without any owner re-outsourcing; a corrupt
// table must be quarantined with a reported reason rather than served
// or crashing boot; and a re-outsource after a restart must supersede
// the earlier process's delta log.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := recoveryConfig(t, dir)
	sys1, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planted := plantedCells(sys1, 5)
	orc := loadPlanted(t, sys1, planted, 1807)
	directAnswers(t, sys1, orc)
	// The stores write chunks of the window size.
	st, err := sharestore.Open(filepath.Join(dir, serverDiskDir(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if info, err := st.Stat(tableName, "o0.chi"); err != nil || info.ChunkCells != cfg.ShardCells {
		t.Fatalf("a System in %d-cell windows wrote %d-cell chunks (%v)", cfg.ShardCells, info.ChunkCells, err)
	}

	// "Kill" the deployment (drop every in-memory engine) and boot a
	// fresh one over the same stores. No OutsourceAll: the owners reload
	// only their own tuples, which extremes read.
	sys2, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orc.reload(t, sys2)
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
	directAnswers(t, sys2, orc)

	// The owners' inventory probe answers "still served" without a
	// single column byte moving.
	for phi, st := range servedStatus(t, sys2, "main") {
		if st == nil || st.Epoch == 0 {
			t.Fatalf("server %d status = %+v, want the table served at its persisted epoch", phi, st)
		}
	}

	// Corrupt one chunk segment on server 0 and boot again: the table is
	// quarantined there — with a machine-readable reason — while boot
	// succeeds and the other servers keep their copies.
	chunkFile := filepath.Join(dir, serverDiskDir(0, 0), "main", "o0.chi.colv2", "c0.ck")
	raw, err := os.ReadFile(chunkFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(chunkFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sys3, err := NewLocalSystem(cfg)
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
	if st := servedStatus(t, sys3, "main")[0]; st != nil {
		t.Fatalf("server 0 lists the quarantined table as served: %+v", st)
	}
	// Re-outsourcing restores full service over the quarantine-freed name.
	directAnswers(t, sys3, loadPlanted(t, sys3, planted, 1807))

	// Every boot registers the tables its store holds before an owner
	// writes, so a re-outsource fences the earlier process's delta
	// segments and new segments continue its sequence. Boot A outsources
	// and makes three single-tuple updates; boot B re-outsources every
	// owner over other data and makes one; boot C must answer every kind
	// as boot B did, not replay A's segments over B's columns.
	cfg = recoveryConfig(t, t.TempDir())
	bootA, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orcA := loadPlanted(t, bootA, planted, 1807)
	for j := range cfg.Owners {
		orcA.addTuple(t, bootA, j, 250+uint64(j), 7+uint64(j))
	}
	bootA.Close()
	bootB, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orcB := loadPlanted(t, bootB, planted[:2], 2718)
	orcB.addTuple(t, bootB, 0, 3, 11)
	want := updateFingerprint(t, bootB)
	directAnswers(t, bootB, orcB)
	bootB.Close()
	bootC, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bootC.Close()
	orcB.reload(t, bootC)
	if got := updateFingerprint(t, bootC); got != want {
		t.Fatalf("boot C answers diverged from boot B:\n--- boot B ---\n%s--- boot C ---\n%s", want, got)
	}
	directAnswers(t, bootC, orcB)
}

// addTuple adds one tuple (cell, v=val) to owner j's table as a
// single-tuple update and to the oracle.
func (orc *oracle) addTuple(t *testing.T, sys *System, j int, cell, val uint64) {
	t.Helper()
	if _, err := sys.Owner(j).UpdateCells(context.Background(), []uint64{cell}, map[string][]uint64{"v": {val}}, nil, nil); err != nil {
		t.Fatalf("owner %d update: %v", j, err)
	}
	orc.sets[j], orc.vals[j] = append(orc.sets[j], cell), append(orc.vals[j], val)
	orc.rebuild()
}

// TestMultiGroupRestartRecovery: a disk-backed multi-group deployment
// must cold-boot each server back into its own group — recovered tables,
// the bucket-tree levels included, answer every kind as the oracle does
// with no re-outsourcing, bpsi from owners that never held the trees —
// and a server booted over another group's store must quarantine every
// foreign manifest (its shares cover a different domain slice) instead
// of serving it.
func TestMultiGroupRestartRecovery(t *testing.T) {
	cfg := shape{storage: "disk-nocache", shard: 32, groups: 2, owners: 3, b: 128}.config(t)
	tables := []string{tableName} // what S0 and S1 hold, S2 the first alone; each group's slice is 64 cells
	for k := range treeLevels(64) {
		tables = append(tables, fmt.Sprintf("%s-bt8/L%d", tableName, k))
	}
	sys1, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orc := loadPlanted(t, sys1, plantedCells(sys1, 5), 42)
	directAnswers(t, sys1, orc)
	sys1.Close()

	sys2, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Owners reload their private tables (extreme queries submit local
	// values) — purely owner-local; not a byte moves to the servers.
	orc.reload(t, sys2)
	for g := 0; g < 2; g++ {
		for phi := 0; phi < 3; phi++ {
			rep, err := sys2.GroupServerEngine(g, phi).RecoveryReport()
			if err != nil {
				t.Fatalf("group %d server %d recovery: %v", g, phi, err)
			}
			var names []string
			for _, tb := range rep.Recovered {
				names = append(names, tb.Name)
			}
			want := tables
			if phi == 2 {
				want = tables[:1]
			}
			if slices.Sort(names); !slices.Equal(names, want) {
				t.Fatalf("group %d server %d recovered %v, want %v", g, phi, names, want)
			}
			if len(rep.Quarantined) != 0 {
				t.Fatalf("group %d server %d quarantined healthy tables: %+v", g, phi, rep.Quarantined)
			}
		}
	}
	directAnswers(t, sys2, orc)
	sys2.Close()

	// Swap the two groups' server-0 stores: both servers now boot over a
	// store whose manifests were written by the other group. Boot must
	// succeed, but each must quarantine every foreign table.
	g0 := filepath.Join(cfg.DiskDir, serverDiskDir(0, 0))
	g1 := filepath.Join(cfg.DiskDir, serverDiskDir(1, 0))
	tmp := filepath.Join(cfg.DiskDir, "swap-tmp")
	for _, mv := range [][2]string{{g0, tmp}, {g1, g0}, {tmp, g1}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	sys3, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatalf("boot over swapped group stores must not fail: %v", err)
	}
	defer sys3.Close()
	for g := 0; g < 2; g++ {
		rep, err := sys3.GroupServerEngine(g, 0).RecoveryReport()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Recovered) != 0 {
			t.Fatalf("group %d server 0 served another group's shares: %+v", g, rep.Recovered)
		}
		if len(rep.Quarantined) != len(tables) || slices.ContainsFunc(rep.Quarantined, func(q serverengine.QuarantinedTable) bool { return q.Reason != "group-mismatch" }) {
			t.Fatalf("group %d server 0 report = %+v, want %d group-mismatch quarantines", g, rep, len(tables))
		}
	}
}
