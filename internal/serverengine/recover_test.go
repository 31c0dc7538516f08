package serverengine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// diskEnginesAt builds three disk-backed engines over caller-owned store
// directories, so a second set over the same dirs models a server
// restart.
func diskEnginesAt(t *testing.T, b, chunkCells uint64, dirs []string, opt func(o *Options)) ([]*Engine, []*sharestore.Store) {
	t.Helper()
	stores := make([]*sharestore.Store, 3)
	engines := newEngines(t, b, func(phi int) Options {
		st, err := sharestore.Open(dirs[phi])
		if err != nil {
			t.Fatal(err)
		}
		st.SetChunkCells(chunkCells)
		stores[phi] = st
		o := Options{Threads: 2, Store: st}
		if opt != nil {
			opt(&o)
		}
		return o
	})
	return engines, stores
}

func storeDirs(t *testing.T) []string {
	t.Helper()
	return []string{t.TempDir(), t.TempDir(), t.TempDir()}
}

// stripReplyStats zeroes the timing stats of a reply so pre- and
// post-restart replies compare byte-for-byte.
func stripReplyStats(v any) any {
	switch r := v.(type) {
	case protocol.PSIReply:
		r.Stats = protocol.Stats{}
		return r
	case protocol.PSUReply:
		r.Stats = protocol.Stats{}
		return r
	case protocol.CountReply:
		r.Stats = protocol.Stats{}
		return r
	case protocol.AggReply:
		r.Stats = protocol.Stats{}
		return r
	}
	return v
}

// TestRecoverReloadsTables: a restarted disk-backed server reloads its
// tables from the manifests and serves byte-identical replies — without
// any owner re-outsourcing, with zero held bytes, and with the
// registration epoch preserved across the restart.
func TestRecoverReloadsTables(t *testing.T) {
	const b, chunk = 96, 16
	dirs := storeDirs(t)
	before, _ := diskEnginesAt(t, b, chunk, dirs, nil)
	storeSharded(t, before, b, 16, true)

	ctx := context.Background()
	queries := []any{
		protocol.PSIRequest{Table: "t", QueryID: "q"},
		protocol.PSIRequest{Table: "t", QueryID: "q", Shard: protocol.Range{Offset: 30, Count: 17}},
		protocol.PSIRequest{Table: "t", QueryID: "q", Verify: true},
		protocol.PSURequest{Table: "t", QueryID: "q"},
		protocol.PSURequest{Table: "t", QueryID: "q", Shard: protocol.Range{Offset: 16, Count: 48}},
	}
	wantReplies := make([]any, len(queries))
	for i, q := range queries {
		r, err := before[0].Handle(ctx, q)
		if err != nil {
			t.Fatalf("pre-restart %T: %v", q, err)
		}
		wantReplies[i] = stripReplyStats(r)
	}
	wantList := before[0].handleListTables()

	// "Restart": fresh engines over the same stores, auto-recovering.
	after, _ := diskEnginesAt(t, b, chunk, dirs, func(o *Options) {
		o.AutoRecover = true
		o.CacheBytes = 1 << 16
	})
	for phi, e := range after {
		rep, err := e.RecoveryReport()
		if err != nil {
			t.Fatalf("server %d recovery: %v", phi, err)
		}
		if len(rep.Recovered) != 1 || rep.Recovered[0].Name != "t" {
			t.Fatalf("server %d recovered %+v, want table t", phi, rep.Recovered)
		}
		rt := rep.Recovered[0]
		if !reflect.DeepEqual(rt.Owners, []int{0, 1}) || len(rt.Adopted) != 0 {
			t.Fatalf("server %d recovered owners %v adopted %v", phi, rt.Owners, rt.Adopted)
		}
		// Two registrations (one per owner) happened before the restart.
		if rt.Epoch != 2 {
			t.Errorf("server %d recovered epoch %d, want 2", phi, rt.Epoch)
		}
		if len(rep.Quarantined) != 0 || len(rep.Ignored) != 0 {
			t.Errorf("server %d spurious quarantine/ignore: %+v", phi, rep)
		}
		if e.HeldBytes() != 0 {
			t.Errorf("server %d holds %d bytes after recovery, want 0 (columns on disk)", phi, e.HeldBytes())
		}
	}
	for i, q := range queries {
		r, err := after[0].Handle(ctx, q)
		if err != nil {
			t.Fatalf("post-restart %T: %v", q, err)
		}
		if !reflect.DeepEqual(stripReplyStats(r), wantReplies[i]) {
			t.Fatalf("%T reply diverged across restart", q)
		}
	}
	if gotList := after[0].handleListTables(); !reflect.DeepEqual(gotList, wantList) {
		t.Fatalf("ListTables diverged across restart:\n  before %+v\n  after  %+v", wantList, gotList)
	}
	// The Shamir server recovers and serves aggregation columns too.
	if _, err := after[2].Handle(ctx, protocol.AggRequest{
		Table: "t", Cols: []string{"v"}, Z: make([]uint64, b),
	}); err != nil {
		t.Fatalf("post-restart aggregation on S_2: %v", err)
	}
}

// TestRecoverEpochAdvancesAcrossRestart: registrations after a recovery
// continue the persisted epoch counter rather than restarting it, so an
// owner comparing epochs can detect a re-registration.
func TestRecoverEpochAdvancesAcrossRestart(t *testing.T) {
	const b = 64
	dirs := storeDirs(t)
	before, _ := diskEnginesAt(t, b, 16, dirs, nil)
	storeSharded(t, before, b, 16, false) // epochs: owner0 → 1, owner1 → 2

	after, _ := diskEnginesAt(t, b, 16, dirs, func(o *Options) { o.AutoRecover = true })
	e := after[0]
	// Owner 0 re-outsources: the epoch must continue from the manifest.
	storeSharded(t, after, b, 16, false)
	list := e.handleListTables()
	if len(list.Tables) != 1 || list.Tables[0].Epoch != 4 {
		t.Fatalf("epoch after restart + re-store = %+v, want 4", list.Tables)
	}
	var man TableManifest
	if _, st := after[0], e.opts.Store; true {
		if err := st.ReadManifest("t", &man); err != nil {
			t.Fatal(err)
		}
	}
	if man.Epoch != 4 || man.Version != ManifestVersion {
		t.Fatalf("manifest = %+v, want epoch 4 version %d", man, ManifestVersion)
	}
}

// recoverOne restarts a single engine over an existing store dir and
// returns its report.
func recoverOne(t *testing.T, b, chunk uint64, dirs []string) (*Engine, *RecoveryReport) {
	t.Helper()
	after, _ := diskEnginesAt(t, b, chunk, dirs, func(o *Options) { o.AutoRecover = true })
	rep, err := after[0].RecoveryReport()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return after[0], rep
}

// wantQuarantined asserts the report (and the store) record exactly one
// quarantined table with the given reason, and that the table is no
// longer served or on the live path.
func wantQuarantined(t *testing.T, e *Engine, rep *RecoveryReport, reason string) {
	t.Helper()
	if len(rep.Recovered) != 0 {
		t.Fatalf("corrupt table was recovered: %+v", rep.Recovered)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != reason {
		t.Fatalf("quarantined = %+v, want one entry with reason %q", rep.Quarantined, reason)
	}
	if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t", QueryID: "q"}); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("quarantined table still answers queries (err=%v)", err)
	}
	qs, err := e.opts.Store.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || qs[0].Table != "t" || qs[0].Reason != reason {
		t.Fatalf("store quarantine records = %+v", qs)
	}
	if tables, _ := e.opts.Store.Tables(); len(tables) != 0 {
		t.Fatalf("quarantined table still listed live: %v", tables)
	}
}

// TestRecoverManifestEdgeCases: every way a manifest can disagree with
// the disk must quarantine (or ignore) the table — never crash boot,
// never serve corrupt data.
func TestRecoverManifestEdgeCases(t *testing.T) {
	const b, chunk = 64, 16
	seed := func(t *testing.T) ([]string, *sharestore.Store) {
		dirs := storeDirs(t)
		before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
		storeSharded(t, before, b, 16, true)
		return dirs, stores[0]
	}
	manifestPath := func(st *sharestore.Store) string {
		return filepath.Join(st.Dir(), "t", "manifest.json")
	}

	t.Run("truncated-manifest", func(t *testing.T) {
		dirs, st := seed(t)
		raw, err := os.ReadFile(manifestPath(st))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath(st), raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		wantQuarantined(t, e, rep, "manifest-unreadable")
	})

	t.Run("deleted-column", func(t *testing.T) {
		dirs, st := seed(t)
		if err := st.DeleteColumn("t", "o0.chi"); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		wantQuarantined(t, e, rep, "column-corrupt")
	})

	t.Run("torn-chunk", func(t *testing.T) {
		dirs, st := seed(t)
		// Corrupt the first chunk segment of a live column.
		chunkFile := filepath.Join(st.Dir(), "t", "o1.chi.colv2", "c0.ck")
		raw, err := os.ReadFile(chunkFile)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(chunkFile, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		wantQuarantined(t, e, rep, "column-corrupt")
	})

	t.Run("owner-count-mismatch", func(t *testing.T) {
		dirs, st := seed(t)
		var man TableManifest
		if err := st.ReadManifest("t", &man); err != nil {
			t.Fatal(err)
		}
		man.Owners = []int{0, 7} // m is 2: owner 7 cannot exist
		if err := st.WriteManifest("t", man); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		wantQuarantined(t, e, rep, "owner-out-of-range")
	})

	t.Run("newer-manifest-version", func(t *testing.T) {
		dirs, st := seed(t)
		var man TableManifest
		if err := st.ReadManifest("t", &man); err != nil {
			t.Fatal(err)
		}
		man.Version = ManifestVersion + 41
		if err := st.WriteManifest("t", man); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		wantQuarantined(t, e, rep, "manifest-version-unsupported")
	})

	t.Run("v1-era-no-manifest", func(t *testing.T) {
		dirs := storeDirs(t)
		st, err := sharestore.Open(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		// A column directory with no manifest at all (pre-manifest era):
		// ignored, never served, never quarantined, never a crash.
		if err := sharestore.Create[uint16](st, "legacy", "o0.chi", b); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		if len(rep.Ignored) != 1 || rep.Ignored[0] != "legacy" {
			t.Fatalf("ignored = %v, want [legacy]", rep.Ignored)
		}
		if len(rep.Quarantined) != 0 || len(rep.Recovered) != 0 {
			t.Fatalf("v1-era dir misclassified: %+v", rep)
		}
		if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "legacy", QueryID: "q"}); err == nil {
			t.Fatal("manifest-less table served")
		}
		// The directory survives untouched for manual inspection.
		if tables, _ := e.opts.Store.Tables(); len(tables) != 1 || tables[0] != "legacy" {
			t.Fatalf("legacy dir gone: %v", tables)
		}
	})
}

// TestRecoverResumesPromotion: a crash between the pending→live renames
// and the manifest write leaves an owner half-promoted; recovery
// verifies both sides, finishes the renames, adopts the owner into the
// manifest with a bumped epoch, and the queries match the pre-crash
// replies — whether the upload came as 16-cell windows or as one window
// of the whole table.
func TestRecoverResumesPromotion(t *testing.T) {
	for _, shard := range []uint64{16, 64} {
		t.Run(fmt.Sprintf("window=%d", shard), func(t *testing.T) { recoverResumesPromotion(t, shard) })
	}
}

func recoverResumesPromotion(t *testing.T, shard uint64) {
	const b, chunk = 64, 16
	dirs := storeDirs(t)
	before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
	storeSharded(t, before, b, shard, true)
	ctx := context.Background()
	want, err := before[0].Handle(ctx, protocol.PSIRequest{Table: "t", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash on server 0: owner 1 has some columns still
	// pending and is missing from the manifest.
	st := stores[0]
	for _, col := range []string{"cnt", "vcnt", "sum.v"} {
		if err := st.RenameColumn("t", "o1."+col, "pend1."+col); err != nil {
			t.Fatal(err)
		}
	}
	var man TableManifest
	if err := st.ReadManifest("t", &man); err != nil {
		t.Fatal(err)
	}
	man.Owners = []int{0}
	man.Epoch = 1
	if err := st.WriteManifest("t", man); err != nil {
		t.Fatal(err)
	}

	e, rep := recoverOne(t, b, chunk, dirs)
	if len(rep.Recovered) != 1 {
		t.Fatalf("recovered = %+v", rep.Recovered)
	}
	rt := rep.Recovered[0]
	if !reflect.DeepEqual(rt.Owners, []int{0, 1}) || !reflect.DeepEqual(rt.Adopted, []int{1}) {
		t.Fatalf("owners %v adopted %v, want [0 1] / [1]", rt.Owners, rt.Adopted)
	}
	if rt.Epoch != 2 {
		t.Errorf("adopted epoch = %d, want 2", rt.Epoch)
	}
	got, err := e.Handle(ctx, protocol.PSIRequest{Table: "t", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripReplyStats(got), stripReplyStats(want)) {
		t.Fatal("PSI reply diverged after promotion resume")
	}
	// The adoption is durable: the manifest now vouches for owner 1.
	if err := st.ReadManifest("t", &man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Owners, []int{0, 1}) || man.Epoch != 2 {
		t.Fatalf("manifest after adoption = %+v", man)
	}
	if st.HasColumn("t", "pend1.cnt") {
		t.Error("pending column survived promotion resume")
	}
}

// TestRecoverReoutsourceOldOrNew: a registered owner's whole-table
// re-outsource killed on its way to the live names must come back as the
// old epoch (killed before the first rename: the assembly is reclaimed)
// or the new one (killed between renames: the promotion is finished and
// adopted) — never some columns of each.
func TestRecoverReoutsourceOldOrNew(t *testing.T) {
	const b, chunk = 64, 16
	ctx := context.Background()
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasVerify: true, HasCount: true, Plain: true}
	ones := make([]uint64, b)
	for i := range ones {
		ones[i] = 1
	}
	replies := func(e *Engine) []any {
		var out []any
		for _, req := range []any{
			protocol.PSIRequest{Table: "t", QueryID: "q", Verify: true},
			protocol.AggRequest{Table: "t", QueryID: "q", Cols: []string{"v"}, WithCount: true, Z: ones, VZ: ones},
		} {
			rep, err := e.Handle(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, stripReplyStats(rep))
		}
		return out
	}
	// The new epoch: owner 1 re-outsources all-zero columns. ref runs
	// the re-outsource to completion.
	ref, _ := diskEnginesAt(t, b, chunk, storeDirs(t), nil)
	storeSharded(t, ref, b, b, true)
	wantOld := replies(ref[0])
	zeros := protocol.StoreRequest{
		Owner: 1, Spec: spec, ChiAdd: make([]uint16, b), ChiBarAdd: make([]uint16, b),
		SumCols: map[string][]uint64{"v": make([]uint64, b)}, VSumCols: map[string][]uint64{"v": make([]uint64, b)},
		CountCol: make([]uint64, b), VCountCol: make([]uint64, b),
	}
	if _, err := ref[0].Handle(ctx, zeros); err != nil {
		t.Fatal(err)
	}
	wantNew := replies(ref[0])
	if reflect.DeepEqual(wantOld, wantNew) {
		t.Fatal("the re-outsource changed no reply; the test cannot tell old from new")
	}

	for _, tc := range []struct {
		name     string
		promoted int // columns already renamed to their live names at the kill
		want     []any
	}{
		{"killed-before-first-rename", 0, wantOld},
		{"killed-between-renames", 3, wantNew},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := storeDirs(t)
			before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
			storeSharded(t, before, b, b, true)
			st := stores[0]
			cols := before[0].specCols(spec)
			pendKey := func(c string) string { return pendColKey(1, c) }
			if err := createCols(st, "t", pendKey, cols, b); err != nil {
				t.Fatal(err)
			}
			in := reqCols(zeros.ChiAdd, zeros.ChiBarAdd, zeros.SumCols, zeros.VSumCols, zeros.CountCol, zeros.VCountCol)
			if err := in.pick(cols).writeAt(st, "t", pendKey, 0); err != nil {
				t.Fatal(err)
			}
			for _, cd := range cols[:tc.promoted] {
				if err := st.RenameColumn("t", pendColKey(1, cd.name), colKey(1, cd.name)); err != nil {
					t.Fatal(err)
				}
			}

			e, rep := recoverOne(t, b, chunk, dirs)
			if len(rep.Recovered) != 1 || len(rep.Quarantined) != 0 {
				t.Fatalf("report = %+v", rep)
			}
			if got := replies(e); !reflect.DeepEqual(got, tc.want) {
				t.Fatal("replies after recovery are neither the epoch expected nor whole")
			}
			if adopted := rep.Recovered[0].Adopted; (tc.promoted > 0) != reflect.DeepEqual(adopted, []int{1}) {
				t.Errorf("adopted = %v with %d columns promoted at the kill", adopted, tc.promoted)
			}
			for _, cd := range cols {
				if st.HasColumn("t", pendColKey(1, cd.name)) {
					t.Errorf("pending column %s survived recovery", cd.name)
				}
			}
		})
	}
}

// TestRecoverReclaimsCrashedUpload: an owner that crashed mid-upload
// (pending columns only, not in the manifest) is reclaimed — pending
// columns deleted, the completed owners keep serving.
func TestRecoverReclaimsCrashedUpload(t *testing.T) {
	const b, chunk = 64, 16
	dirs := storeDirs(t)
	before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
	storeSharded(t, before, b, 16, true)
	st := stores[0]

	// Rewind server 0 to "owner 1 never completed": live columns gone,
	// a partially streamed pending assembly in their place.
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasVerify: true, HasCount: true, Plain: true}
	for _, cd := range before[0].specCols(spec) {
		if err := st.DeleteColumn("t", colKey(1, cd.name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sharestore.Create[uint16](st, "t", "pend1.chi", b); err != nil {
		t.Fatal(err)
	}
	if err := sharestore.WriteRange(st, "t", "pend1.chi", 0, make([]uint16, b/2)); err != nil {
		t.Fatal(err)
	}
	var man TableManifest
	if err := st.ReadManifest("t", &man); err != nil {
		t.Fatal(err)
	}
	man.Owners = []int{0}
	if err := st.WriteManifest("t", man); err != nil {
		t.Fatal(err)
	}

	_, rep := recoverOne(t, b, chunk, dirs)
	if len(rep.Recovered) != 1 || !reflect.DeepEqual(rep.Recovered[0].Owners, []int{0}) {
		t.Fatalf("recovered = %+v, want owners [0]", rep.Recovered)
	}
	if rep.PendingReclaimed != 1 {
		t.Errorf("reclaimed %d assemblies, want 1", rep.PendingReclaimed)
	}
	if st.HasColumn("t", "pend1.chi") {
		t.Error("crashed upload's pending column survived recovery")
	}
}

// TestListTablesEpoch: the ListTables RPC reports registrations and the
// epoch advances on every one (in-memory engines count from boot).
func TestListTablesEpoch(t *testing.T) {
	const b = 32
	engines := newEngines(t, b, nil)
	reply, err := engines[0].Handle(context.Background(), protocol.ListTablesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(reply.(protocol.ListTablesReply).Tables); n != 0 {
		t.Fatalf("empty engine lists %d tables", n)
	}
	storeFull(t, engines, b, false)
	reply, err = engines[0].Handle(context.Background(), protocol.ListTablesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	tables := reply.(protocol.ListTablesReply).Tables
	if len(tables) != 1 || tables[0].Spec.Name != "t" ||
		!reflect.DeepEqual(tables[0].Owners, []int{0, 1}) || tables[0].Epoch != 2 {
		t.Fatalf("ListTables = %+v, want table t owners [0 1] epoch 2", tables)
	}
	// Drop + full re-outsource must not reuse old epochs: a probe that
	// recorded epoch 2 must see the replacement as a different
	// registration.
	if _, err := engines[0].Handle(context.Background(), protocol.DropRequest{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	storeFull(t, engines, b, false)
	reply, err = engines[0].Handle(context.Background(), protocol.ListTablesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reply.(protocol.ListTablesReply).Tables[0].Epoch; got != 4 {
		t.Fatalf("epoch after drop + re-store = %d, want 4 (continues past the dropped table's 2)", got)
	}
}

// TestRecoverNeedsDisk: recovery on a RAM-only engine reports a clear
// error instead of pretending to scan.
func TestRecoverNeedsDisk(t *testing.T) {
	engines := newEngines(t, 16, nil)
	if _, err := engines[0].Recover(); err == nil {
		t.Fatal("Recover on a memory engine did not error")
	}
}
