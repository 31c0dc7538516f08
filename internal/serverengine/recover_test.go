package serverengine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

	// "Restart": fresh engines over the same stores.
	after, _ := diskEnginesAt(t, b, chunk, dirs, nil)
	for phi, e := range after {
		rep, err := e.RecoveryReport()
		if err != nil {
			t.Fatalf("server %d recovery: %v", phi, err)
		}
		if len(rep.Recovered) != 1 || rep.Recovered[0].Name != "t" {
			t.Fatalf("server %d recovered %+v, want table t", phi, rep.Recovered)
		}
		rt := rep.Recovered[0]
		if !reflect.DeepEqual(rt.Owners, []int{0, 1}) {
			t.Fatalf("server %d recovered owners %v", phi, rt.Owners)
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
// owner comparing epochs can detect a re-registration. Every manifest is
// written under ManifestVersion, whichever slots its owners serve from.
func TestRecoverEpochAdvancesAcrossRestart(t *testing.T) {
	const b = 64
	dirs := storeDirs(t)
	before, _ := diskEnginesAt(t, b, 16, dirs, nil)
	storeSharded(t, before, b, 16, false) // epochs: owner0 → 1, owner1 → 2

	after, _ := diskEnginesAt(t, b, 16, dirs, nil)
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
	// The re-outsource moved both owners to slot 1.
	if man.Epoch != 4 || man.Version != ManifestVersion || !reflect.DeepEqual(man.Slots, map[int]int{0: 1, 1: 1}) {
		t.Fatalf("manifest = %+v, want epoch 4 version %d, both owners on slot 1", man, ManifestVersion)
	}
	// One more restart and re-outsource brings both back to slot 0.
	again, _ := diskEnginesAt(t, b, 16, dirs, nil)
	storeSharded(t, again, b, 16, false)
	man = TableManifest{}
	if err := again[0].opts.Store.ReadManifest("t", &man); err != nil {
		t.Fatal(err)
	}
	if man.Epoch != 6 || man.Version != ManifestVersion || man.Slots != nil {
		t.Fatalf("manifest = %+v, want epoch 6 version %d, no slots", man, ManifestVersion)
	}
}

// recoverOne restarts a single engine over an existing store dir and
// returns its report.
func recoverOne(t *testing.T, b, chunk uint64, dirs []string) (*Engine, *RecoveryReport) {
	t.Helper()
	after, _ := diskEnginesAt(t, b, chunk, dirs, nil)
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

// storeFiles maps every file and directory under dir to the SHA-256 of
// its contents ("" for a directory).
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel] = ""
			return nil
		}
		raw, err := os.ReadFile(path)
		sum := sha256.Sum256(raw)
		out[rel] = hex.EncodeToString(sum[:])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// setManifestVersion rewrites table "t"'s manifest under version v.
func setManifestVersion(t *testing.T, st *sharestore.Store, v int) {
	t.Helper()
	var man TableManifest
	if err := st.ReadManifest("t", &man); err != nil {
		t.Fatal(err)
	}
	man.Version = v
	if err := st.WriteManifest("t", man); err != nil {
		t.Fatal(err)
	}
}

// wantRefused restarts server 0 over dirs, whose table "t" carries a
// manifest of another version, and asserts the boot is refused with
// ErrStoreEpoch naming the table and both versions, that nothing is
// served, and that every file of the store is as it was.
func wantRefused(t *testing.T, b, chunk uint64, dirs []string, version int) {
	t.Helper()
	before := storeFiles(t, dirs[0])
	after, _ := diskEnginesAt(t, b, chunk, dirs, nil)
	e := after[0]
	_, err := e.RecoveryReport()
	want := fmt.Sprintf("table %q has manifest version %d, this build reads version %d only", "t", version, ManifestVersion)
	if !errors.Is(err, ErrStoreEpoch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery: %v; want ErrStoreEpoch saying %q", err, want)
	}
	if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t", QueryID: "q"}); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("a refused store answers queries (err=%v)", err)
	}
	if got := storeFiles(t, dirs[0]); !reflect.DeepEqual(got, before) {
		t.Fatalf("the refused store changed:\n got %v\nwant %v", got, before)
	}
}

// TestRecoverManifestEdgeCases: every way a manifest can disagree with
// the disk must quarantine (or ignore) the table, and a manifest of
// another version refuse the store — never crash boot, never serve
// corrupt data.
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
		wantRefused(t, b, chunk, dirs, ManifestVersion+41)
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

// TestRecoverReoutsourceOldOrNew walks every ordering point of two
// re-outsources of a registered owner — each upload's other slot
// emptied last column first (the second upload's slot still holds the
// first epoch's columns) and created, each window written, the manifest
// written — crashing the server at each and restarting it. The old slot
// outlives each commit (a snapshot taken before it may still read
// there), so an upload's manifest write is its last point. The
// restarted server answers as the epoch the last manifest write before
// the crash committed, never a mix; nothing is quarantined and no
// column outside the live slots is left. The uploads come as one window
// of the whole table and as 16-cell windows, every column verified.
func TestRecoverReoutsourceOldOrNew(t *testing.T) {
	const b = 64
	for _, window := range []uint64{b, 16} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) { reoutsourceWalk(t, b, window) })
	}
}

// reoutsourceFill re-outsources owner 1's columns of spec with every
// cell fill, in windows of the given size, up to the first error.
func reoutsourceFill(e *Engine, spec protocol.TableSpec, window, fill uint64) error {
	for off := uint64(0); off < spec.B; off += window {
		n := min(window, spec.B-off)
		u16 := func() []uint16 {
			v := make([]uint16, n)
			for i := range v {
				v[i] = uint16(fill)
			}
			return v
		}
		u64 := func() []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = fill
			}
			return v
		}
		if _, err := e.Handle(context.Background(), protocol.StoreRequest{
			Owner: 1, Spec: spec, UploadID: fmt.Sprintf("walk/%d", fill), Shard: protocol.Range{Offset: off, Count: n},
			ChiAdd: u16(), ChiBarAdd: u16(),
			SumCols: map[string][]uint64{"v": u64()}, VSumCols: map[string][]uint64{"v": u64()},
			CountCol: u64(), VCountCol: u64(),
		}); err != nil {
			return err
		}
	}
	return nil
}

func reoutsourceWalk(t *testing.T, b, window uint64) {
	const chunk = 16
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
	// reoutsource uploads owner 1's columns as all zeros and then as all
	// twos, up to the first error.
	reoutsource := func(e *Engine) error {
		if err := reoutsourceFill(e, spec, window, 0); err != nil {
			return err
		}
		return reoutsourceFill(e, spec, window, 2)
	}

	// A run to completion: the three epochs' replies and the ordering
	// points between them.
	ref, _ := diskEnginesAt(t, b, chunk, storeDirs(t), nil)
	storeSharded(t, ref, b, window, true)
	want := [][]any{replies(ref[0])}
	var steps []string
	ref[0].SetCompactStepHook(func(step string) error { steps = append(steps, step); return nil })
	for _, fill := range []uint64{0, 2} {
		if err := reoutsourceFill(ref[0], spec, window, fill); err != nil {
			t.Fatal(err)
		}
		want = append(want, replies(ref[0]))
	}
	for i := range want {
		for k := range i {
			if reflect.DeepEqual(want[i], want[k]) {
				t.Fatalf("epochs %d and %d answer alike; the test cannot tell them apart", k, i)
			}
		}
	}
	cols := ref[0].specCols(spec)
	// Each upload: its other slot's columns dropped, last first (only
	// the second finds any), the slot created, one point per window, the
	// manifest last.
	upload := []string{"upload:created"}
	for off := uint64(0); off < b; off += window {
		upload = append(upload, fmt.Sprintf("upload:window:%d", off))
	}
	upload = append(upload, "upload:manifest")
	wantSteps := slices.Clone(upload)
	for i := len(cols) - 1; i >= 0; i-- {
		wantSteps = append(wantSteps, "drop:"+slotKey(1, 0, cols[i].name))
	}
	wantSteps = append(wantSteps, upload...)
	if !slices.Equal(steps, wantSteps) {
		t.Fatalf("ordering points %v, want %v", steps, wantSteps)
	}

	errCrash := errors.New("crash injected")
	epoch := 0 // the epoch a crash at the current point leaves committed
	for n, point := range steps {
		second := n >= len(upload)
		if point == "upload:manifest" {
			epoch++
		}
		name := point
		if second && !strings.HasPrefix(point, "drop:") {
			name = "second:" + point
		}
		// Owner 1 serves from slot 0 in epochs 0 and 2, slot 1 in epoch 1.
		live := epoch % 2
		t.Run(name, func(t *testing.T) {
			dirs := storeDirs(t)
			before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
			storeSharded(t, before, b, window, true)
			seen := 0
			before[0].SetCompactStepHook(func(string) error {
				if seen++; seen == n+1 {
					return errCrash
				}
				return nil
			})
			if err := reoutsource(before[0]); err != nil && !errors.Is(err, errCrash) {
				t.Fatal(err)
			}
			if seen <= n {
				t.Fatalf("the uploads never reached %s", name)
			}

			e, rep := recoverOne(t, b, chunk, dirs)
			if len(rep.Recovered) != 1 || len(rep.Quarantined) != 0 || rep.PendingReclaimed != 1 {
				t.Fatalf("report = %+v", rep)
			}
			if !reflect.DeepEqual(replies(e), want[epoch]) {
				t.Fatalf("replies after a crash at %s are not epoch %d's (each manifest write commits the next)", name, epoch)
			}
			for j, liveSlot := range []int{0, live} {
				for slot := range 2 {
					for _, cd := range cols {
						if key := slotKey(j, slot, cd.name); stores[0].HasColumn("t", key) != (slot == liveSlot) {
							t.Errorf("column %s present = %v, live slot of owner %d is %d", key, !(slot == liveSlot), j, liveSlot)
						}
					}
				}
			}
		})
	}
}

// TestSnapshotReadsItsEpochAcrossReoutsource: a query that took its
// table snapshot before a disk re-outsource committed still reads the
// epoch it started on afterwards. Its snapshot names the slot the owner
// served from, and the commit leaves that slot on disk, so its owner
// sum (built cold, after the commit) and its window reads both return
// the old epoch's cells, as a server that never saw the re-outsource
// would.
func TestSnapshotReadsItsEpochAcrossReoutsource(t *testing.T) {
	const b, chunk = 64, 16
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasVerify: true, HasCount: true, Plain: true}
	rg := protocol.Range{Count: b}
	read := func(e *Engine, v *tableView) (sum []uint16, own [2][]uint64) {
		t.Helper()
		s, _, err := ownerSum[uint16](e, v, "chi", rg, nil, nil, &protocol.Stats{})
		if err != nil {
			t.Fatalf("owner sum: %v", err)
		}
		sum = slices.Clone(s)
		for j := range own {
			w, _, err := fetchWindow[uint64](e, v, j, "sum.v", rg, &protocol.Stats{})
			if err != nil {
				t.Fatalf("owner %d window: %v", j, err)
			}
			own[j] = slices.Clone(w)
		}
		return sum, own
	}
	ref, _ := diskEnginesAt(t, b, chunk, storeDirs(t), nil)
	storeSharded(t, ref, b, 16, true)
	rv, err := ref[0].lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantOwn := read(ref[0], rv)

	engines, _ := diskEnginesAt(t, b, chunk, storeDirs(t), nil)
	storeSharded(t, engines, b, 16, true)
	e := engines[0]
	old, err := e.lookup("t") // a cold epoch cache: nothing read yet
	if err != nil {
		t.Fatal(err)
	}
	if err := reoutsourceFill(e, spec, 16, 0); err != nil {
		t.Fatal(err)
	}
	if sum, own := read(e, old); !slices.Equal(sum, wantSum) || !reflect.DeepEqual(own, wantOwn) {
		t.Fatalf("the old snapshot read sum %v, owners %v; want the old epoch's %v, %v", sum, own, wantSum, wantOwn)
	}
	cur, err := e.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, own := read(e, cur); slices.ContainsFunc(own[1], func(v uint64) bool { return v != 0 }) {
		t.Fatalf("the new snapshot read owner 1's old cells %v", own[1])
	}
}

// TestRecoverParentLayouts boots stores in the layouts earlier builds
// left, and one a later build wrote: a version 1 manifest, or a version
// 2 one while a compaction pass ran, beside a crashed upload's pend<j>.*
// columns or a registered owner left mid-promotion (its first pending
// column renamed over the live one, the later ones not yet); updates in
// d<seq>.dseg segments instead of a log; a version 3 manifest naming
// slots; and a manifest newer than ManifestVersion. Each store is refused
// with ErrStoreEpoch and left byte for byte as it was: nothing is
// reclaimed, migrated, truncated or quarantined.
func TestRecoverParentLayouts(t *testing.T) {
	const b, chunk = 64, 16
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasVerify: true, HasCount: true, Plain: true}
	errCrash := errors.New("crash injected")
	seed := func(t *testing.T) ([]string, *Engine, *sharestore.Store) {
		dirs := storeDirs(t)
		before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
		storeSharded(t, before, b, 16, true)
		return dirs, before[0], stores[0]
	}
	for _, version := range []int{1, 2} {
		for _, midPromotion := range []bool{false, true} {
			name := map[bool]string{false: "crashed-upload", true: "mid-promotion"}[midPromotion]
			t.Run(fmt.Sprintf("v%d/%s", version, name), func(t *testing.T) {
				dirs, e, st := seed(t)
				deltaUpdate(t, e, 5)
				if version == 2 {
					e.SetCompactStepHook(func(step string) error {
						if step == "through" {
							return errCrash
						}
						return nil
					})
					if _, err := e.Compact("t"); !errors.Is(err, errCrash) {
						t.Fatalf("pass ended with %v, want the injected crash", err)
					}
				}
				var man TableManifest
				if err := st.ReadManifest("t", &man); err != nil || (man.CompactThrough > 0) != (version == 2) || man.Slots != nil {
					t.Fatalf("manifest = %+v (%v), want CompactThrough set only in version 2, no slots", man, err)
				}
				setManifestVersion(t, st, version)

				// Owner 1's re-outsource as that build streamed it: every
				// column into pend1.*, first column first.
				cols := e.specCols(spec)
				streamed := cols[:2]
				if midPromotion {
					streamed = cols
				}
				for _, cd := range streamed {
					var err error
					if cd.width == 2 {
						err = sharestore.Write(st, "t", "pend1."+cd.name, make([]uint16, b))
					} else {
						err = sharestore.Write(st, "t", "pend1."+cd.name, make([]uint64, b))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if midPromotion {
					// Its first rename landed: pend1.chi replaced o1.chi.
					live := filepath.Join(st.Dir(), "t", "o1.chi.colv2")
					if err := os.RemoveAll(live); err != nil {
						t.Fatal(err)
					}
					if err := os.Rename(filepath.Join(st.Dir(), "t", "pend1.chi.colv2"), live); err != nil {
						t.Fatal(err)
					}
				}
				wantRefused(t, b, chunk, dirs, version)
			})
		}
	}

	t.Run("v1/delta-segments", func(t *testing.T) {
		dirs, e, st := seed(t)
		for _, p := range []uint64{3, 40, 3, 20} {
			deltaUpdate(t, e, p)
		}
		e.Close()
		dir := filepath.Join(st.Dir(), "t", "deltalog")
		for _, rec := range logRecords(t, filepath.Join(dir, "l1.dlog")) {
			seq := binary.LittleEndian.Uint64(rec[9:]) // after the magic, version and CRC
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("d%d.dseg", seq)), rec, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Remove(filepath.Join(dir, "l1.dlog")); err != nil {
			t.Fatal(err)
		}
		setManifestVersion(t, st, 1)
		wantRefused(t, b, chunk, dirs, 1)
	})

	t.Run("v3/slots", func(t *testing.T) {
		dirs, e, st := seed(t)
		deltaUpdate(t, e, 5)
		after, _ := diskEnginesAt(t, b, chunk, dirs, nil)
		storeSharded(t, after, b, 16, true) // both owners move to slot 1
		var man TableManifest
		if err := st.ReadManifest("t", &man); err != nil || !reflect.DeepEqual(man.Slots, map[int]int{0: 1, 1: 1}) {
			t.Fatalf("manifest = %+v (%v), want both owners on slot 1", man, err)
		}
		setManifestVersion(t, st, 3)
		wantRefused(t, b, chunk, dirs, 3)
	})

	t.Run(fmt.Sprintf("v%d/newer-build", ManifestVersion+1), func(t *testing.T) {
		dirs, e, st := seed(t)
		deltaUpdate(t, e, 5)
		setManifestVersion(t, st, ManifestVersion+1)
		wantRefused(t, b, chunk, dirs, ManifestVersion+1)
	})
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
}

// deltaUpdate sends server 0 an update of owner 0's table "t" (as
// storeSharded outsources it, verified) at stored positions p and p+1.
func deltaUpdate(t *testing.T, e *Engine, p uint64) {
	t.Helper()
	v := 31 + 7*p
	if _, err := e.Handle(context.Background(), protocol.StoreDeltaRequest{
		Owner: 0, Table: "t",
		Pos: []uint64{p, p + 1}, Chi: []uint16{uint16(v), uint16(v + 1)},
		Sums: map[string][]uint64{"v": {v, v + 2}}, Cnt: []uint64{v + 3, v + 4},
		VPos: []uint64{p, p + 1}, ChiBar: []uint16{uint16(v + 5), uint16(v + 6)},
		VSums: map[string][]uint64{"v": {v + 7, v + 8}}, VCnt: []uint64{v + 9, v + 10},
	}); err != nil {
		t.Fatalf("update at %d: %v", p, err)
	}
}

// deltaReplies is server 0's replies to queries every update above shows
// in.
func deltaReplies(t *testing.T, e *Engine) []any {
	t.Helper()
	var out []any
	for _, q := range []any{
		protocol.PSIRequest{Table: "t", QueryID: "q", Verify: true},
		protocol.PSURequest{Table: "t", QueryID: "q"},
		protocol.AggRequest{Table: "t", Cols: []string{"v"}, Z: make([]uint64, 64)},
	} {
		r, err := e.Handle(context.Background(), q)
		if err != nil {
			t.Fatalf("%T: %v", q, err)
		}
		out = append(out, stripReplyStats(r))
	}
	return out
}

// logRecords splits a delta log file into its records' bytes, each
// without its length prefix.
func logRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for len(raw) > 0 {
		n := int(binary.LittleEndian.Uint32(raw))
		recs, raw = append(recs, raw[4:4+n]), raw[4+n:]
	}
	return recs
}

// TestRecoverDeltaLog drives recovery's delta log outcomes: a torn last
// record of the newest file — an append that never returned — is cut
// off, the file truncated to its whole records and every update before
// it served; a bad record before a good one is delta-corrupt; a record
// naming a column outside the layout, or a position at or past b, is
// delta-invalid.
func TestRecoverDeltaLog(t *testing.T) {
	const b, chunk = 64, 16
	seed := func(t *testing.T) ([]string, *Engine, *sharestore.Store) {
		dirs := storeDirs(t)
		before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
		storeSharded(t, before, b, 16, true)
		return dirs, before[0], stores[0]
	}
	logPath := func(st *sharestore.Store) string { return filepath.Join(st.Dir(), "t", "deltalog", "l1.dlog") }

	t.Run("torn-last-record", func(t *testing.T) {
		dirs, e, st := seed(t)
		deltaUpdate(t, e, 3)
		deltaUpdate(t, e, 40)
		want := deltaReplies(t, e)
		deltaUpdate(t, e, 20)
		if reflect.DeepEqual(deltaReplies(t, e), want) {
			t.Fatal("the third update changed no reply")
		}
		recs := logRecords(t, logPath(st))
		whole := int64(8 + len(recs[0]) + len(recs[1]))
		if err := os.Truncate(logPath(st), whole+4+int64(len(recs[2]))/2); err != nil {
			t.Fatal(err)
		}
		after, rep := recoverOne(t, b, chunk, dirs)
		if len(rep.Quarantined) != 0 || len(rep.Recovered) != 1 {
			t.Fatalf("torn last record: %+v", rep)
		}
		if !reflect.DeepEqual(deltaReplies(t, after), want) {
			t.Fatal("replies after recovery differ from those before the torn update")
		}
		if fi, err := os.Stat(logPath(st)); err != nil || fi.Size() != whole {
			t.Fatalf("log file not truncated to its %d whole-record bytes: %v, %v", whole, fi.Size(), err)
		}
		deltaUpdate(t, after, 20) // the owner's retry lands after the whole records
		if _, rep := recoverOne(t, b, chunk, dirs); len(rep.Quarantined) != 0 || len(rep.Recovered) != 1 {
			t.Fatalf("restart after the retry: %+v", rep)
		}
	})

	t.Run("bad-record-before-good", func(t *testing.T) {
		dirs, e, st := seed(t)
		deltaUpdate(t, e, 3)
		deltaUpdate(t, e, 40)
		raw, err := os.ReadFile(logPath(st))
		if err != nil {
			t.Fatal(err)
		}
		raw[4+20] ^= 1 // in the first record's body
		if err := os.WriteFile(logPath(st), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, rep := recoverOne(t, b, chunk, dirs)
		wantQuarantined(t, e, rep, "delta-corrupt")
	})

	for name, dc := range map[string]sharestore.DeltaCol{
		"column-outside-layout":  {Name: colKey(0, "nosuch"), Width: 8, Pos: []uint64{1}, Vals: []uint64{1}},
		"column-of-other-width":  {Name: colKey(0, "chi"), Width: 8, Pos: []uint64{1}, Vals: []uint64{1}},
		"position-outside-table": {Name: colKey(0, "chi"), Width: 2, Pos: []uint64{b}, Vals: []uint64{1}},
	} {
		t.Run(name, func(t *testing.T) {
			dirs, e, st := seed(t)
			deltaUpdate(t, e, 3)
			if err := st.AppendDeltaSeg("t", 2, []sharestore.DeltaCol{dc}); err != nil {
				t.Fatal(err)
			}
			e, rep := recoverOne(t, b, chunk, dirs)
			wantQuarantined(t, e, rep, "delta-invalid")
		})
	}
}

// TestRecoverReplayOutcomes pins the one replay's outcomes where the
// log meets the manifest: a record naming a column outside the layout
// is delta-invalid whether it sits at or before CompactThrough (before
// the roll-forward) or after it; and a manifest listing no owner is
// ignored beside a non-empty log, its log not replayed and every
// owner's columns reclaimed.
func TestRecoverReplayOutcomes(t *testing.T) {
	const b, chunk = 64, 16
	seed := func(t *testing.T, edit func(*TableManifest)) ([]string, *sharestore.Store) {
		dirs := storeDirs(t)
		before, stores := diskEnginesAt(t, b, chunk, dirs, nil)
		storeSharded(t, before, b, 16, true)
		deltaUpdate(t, before[0], 3)
		var man TableManifest
		if err := stores[0].ReadManifest("t", &man); err != nil {
			t.Fatal(err)
		}
		edit(&man)
		if err := stores[0].WriteManifest("t", man); err != nil {
			t.Fatal(err)
		}
		return dirs, stores[0]
	}
	for _, through := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("bad-record-2-compact-through-%d", through), func(t *testing.T) {
			dirs, st := seed(t, func(man *TableManifest) { man.CompactThrough = through })
			bad := sharestore.DeltaCol{Name: colKey(0, "nosuch"), Width: 8, Pos: []uint64{1}, Vals: []uint64{1}}
			if err := st.AppendDeltaSeg("t", 2, []sharestore.DeltaCol{bad}); err != nil {
				t.Fatal(err)
			}
			e, rep := recoverOne(t, b, chunk, dirs)
			wantQuarantined(t, e, rep, "delta-invalid")
		})
	}

	t.Run("no-owner-manifest-beside-a-log", func(t *testing.T) {
		dirs, _ := seed(t, func(man *TableManifest) { man.Owners, man.Slots = nil, nil })
		e, rep := recoverOne(t, b, chunk, dirs)
		if !slices.Equal(rep.Ignored, []string{"t"}) || len(rep.Quarantined) != 0 || len(rep.Recovered) != 0 {
			t.Fatalf("report %+v, want the table ignored", rep)
		}
		if rep.PendingReclaimed != 2 {
			t.Fatalf("reclaimed %d owners' columns, want 2", rep.PendingReclaimed)
		}
		for j := 0; j < 2; j++ {
			for slot := 0; slot < 2; slot++ {
				if e.opts.Store.HasColumn("t", slotKey(j, slot, "chi")) {
					t.Fatalf("owner %d slot %d column left after the reclaim", j, slot)
				}
			}
		}
	})
}
