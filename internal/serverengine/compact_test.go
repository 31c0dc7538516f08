package serverengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// compactEngine opens server 0 of a 2-owner system over the store in
// dir, b cells in chunks of chunk cells. Opening an existing store runs
// recovery, as every disk-backed start does.
func compactEngine(t *testing.T, dir string, b, chunk uint64) *Engine {
	t.Helper()
	st, err := sharestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetChunkCells(chunk)
	e := New(fullView(t, 0, 2, b), Options{Threads: 2, Store: st})
	t.Cleanup(e.Close)
	return e
}

// pendingUpdates sends both owners' updates of table "t" at every
// stride-th cell from first, as absolute values that differ from what
// storeFull stored. It returns the overlay the next pass folds.
func pendingUpdates(t *testing.T, e *Engine, b, first, stride uint64) map[string]sharestore.DeltaCol {
	t.Helper()
	for owner := 0; owner < 2; owner++ {
		var pos []uint64
		for p := first + uint64(owner); p < b; p += stride {
			pos = append(pos, p)
		}
		chi, v, cnt := make([]uint16, len(pos)), make([]uint64, len(pos)), make([]uint64, len(pos))
		for i, p := range pos {
			chi[i], v[i], cnt[i] = uint16(p%100)+200, p<<40|1, p<<40|2
		}
		if _, err := e.Handle(context.Background(), protocol.StoreDeltaRequest{
			Owner: owner, Table: "t", Pos: pos, Chi: chi, Sums: map[string][]uint64{"v": v}, Cnt: cnt,
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := e.tables["t"].delta.snapshot()
	return snap
}

// fileState is one file of a column directory as a pass found it.
type fileState struct {
	info os.FileInfo
	data []byte
}

// columnFiles reads every file of the column directories e's
// registration of table t names live, keyed by the column's colKey name
// whichever slot holds it. A re-outsourced owner's previous slot is not
// read: it is no one's live columns.
func columnFiles(t *testing.T, e *Engine, dir string) map[string]map[string]fileState {
	t.Helper()
	e.mu.RLock()
	tab := e.tables["t"]
	e.mu.RUnlock()
	out := make(map[string]map[string]fileState)
	for j, oc := range tab.owners {
		for _, cd := range e.specCols(tab.spec) {
			path := filepath.Join(dir, "t", slotKey(j, oc.slot, cd.name)+".colv2")
			ents, err := os.ReadDir(path)
			if err != nil {
				t.Fatal(err)
			}
			files := make(map[string]fileState)
			for _, ent := range ents {
				info, err := os.Stat(filepath.Join(path, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(filepath.Join(path, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				files[ent.Name()] = fileState{info, data}
			}
			out[colKey(j, cd.name)] = files
		}
	}
	return out
}

// TestCompactionPatchesInPlace pins what a pass writes: after folding N
// entries every chunk file is the same file (inode), no column directory
// gained or lost a file, and a touched chunk differs from its old bytes
// only in its 4-byte header CRC and in the bytes of the cells the
// overlay held.
func TestCompactionPatchesInPlace(t *testing.T) {
	const b, chunk = 256, 32
	dir := t.TempDir()
	e := compactEngine(t, dir, b, chunk)
	storeFull(t, []*Engine{e}, b, false)
	snap := pendingUpdates(t, e, b, 3, 11)
	before := columnFiles(t, e, dir)
	st, err := e.Compact("t")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, dc := range snap {
		entries += len(dc.Pos)
	}
	if st.Entries != entries || entries == 0 {
		t.Fatalf("pass folded %d entries, overlay held %d", st.Entries, entries)
	}
	after := columnFiles(t, e, dir)
	if len(after) != len(before) {
		t.Fatalf("%d column directories after the pass, %d before", len(after), len(before))
	}
	changed := 0
	for col, files := range before {
		if len(after[col]) != len(files) {
			t.Errorf("column %s: %d files after the pass, %d before", col, len(after[col]), len(files))
		}
		dc := snap[col]
		for name, old := range files {
			cur, ok := after[col][name]
			if !ok {
				t.Errorf("column %s: %s gone after the pass", col, name)
				continue
			}
			if !os.SameFile(old.info, cur.info) {
				t.Errorf("column %s: %s was replaced, not patched in place", col, name)
			}
			var k uint64
			if _, err := fmt.Sscanf(name, "c%d.ck", &k); err != nil {
				if !bytes.Equal(old.data, cur.data) {
					t.Errorf("column %s: %s changed", col, name)
				}
				continue
			}
			// The bytes the pass may change: the CRC and the patched cells.
			may := make([]bool, len(old.data))
			for i := 14; i < 18; i++ {
				may[i] = true
			}
			for _, p := range dc.Pos {
				if p/chunk == k {
					for i := 0; i < dc.Width; i++ {
						may[18+int(p%chunk)*dc.Width+i] = true
					}
				}
			}
			if len(cur.data) != len(old.data) {
				t.Errorf("column %s: %s is %d bytes, was %d", col, name, len(cur.data), len(old.data))
				continue
			}
			for i := range old.data {
				if old.data[i] != cur.data[i] {
					if !may[i] {
						t.Errorf("column %s: %s byte %d changed outside the CRC and the patched cells", col, name, i)
						break
					}
					changed++
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("the pass changed no byte")
	}
}

// TestCompactionTornChunk crashes a pass between a chunk's new CRC and
// its cells. Restarted over that store, recovery rolls the chunk forward
// from the delta log and serves the table; with one more byte of the
// chunk flipped, outside the cells the pass was writing, replay cannot
// make the chunk whole and the table is quarantined, the reason naming
// the chunk.
func TestCompactionTornChunk(t *testing.T) {
	const b, chunk = 256, 32
	errCrash := errors.New("crash injected")
	for _, flip := range []bool{false, true} {
		t.Run(fmt.Sprintf("flipped=%v", flip), func(t *testing.T) {
			dir := t.TempDir()
			e := compactEngine(t, dir, b, chunk)
			storeFull(t, []*Engine{e}, b, false)
			snap := pendingUpdates(t, e, b, 3, 11)
			var col string
			var k uint64
			e.SetCompactStepHook(func(step string) error {
				if strings.HasPrefix(step, "cells:") {
					if _, err := fmt.Sscanf(strings.Replace(step[len("cells:"):], "/", " ", 1), "%s %d", &col, &k); err != nil {
						t.Fatalf("step %q: %v", step, err)
					}
					return errCrash
				}
				return nil
			})
			if _, err := e.Compact("t"); !errors.Is(err, errCrash) || !errors.Is(err, sharestore.ErrMidPatch) {
				t.Fatalf("pass ended with %v, want the injected crash mid-patch", err)
			}
			if _, err := e.Compact("t"); err == nil || !strings.Contains(err.Error(), "mid-patch") {
				t.Fatalf("a second pass over the torn chunk ran: %v", err)
			}
			var man TableManifest
			if err := e.opts.Store.ReadManifest("t", &man); err != nil {
				t.Fatal(err)
			}
			if man.CompactThrough == 0 || man.Version != ManifestVersion {
				t.Fatalf("manifest during the pass = %+v, want CompactThrough set under version %d", man, ManifestVersion)
			}
			path := filepath.Join(dir, "t", col+".colv2", fmt.Sprintf("c%d.ck", k))
			if flip {
				patched := make(map[uint64]bool)
				for _, p := range snap[col].Pos {
					patched[p] = true
				}
				p := k * chunk
				for patched[p] {
					p++
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[18+int(p-k*chunk)*snap[col].Width] ^= 1
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()

			re := compactEngine(t, dir, b, chunk)
			rep, err := re.RecoveryReport()
			if err != nil {
				t.Fatal(err)
			}
			if flip {
				want := fmt.Sprintf("c%d.ck", k)
				if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "column-corrupt" || !strings.Contains(rep.Quarantined[0].Detail, want) {
					t.Fatalf("recovery quarantined %+v, want column-corrupt naming %s", rep.Quarantined, want)
				}
				return
			}
			if len(rep.Quarantined) != 0 || len(rep.Recovered) != 1 {
				t.Fatalf("recovery report %+v", rep)
			}
			man = TableManifest{}
			if err := re.opts.Store.ReadManifest("t", &man); err != nil {
				t.Fatal(err)
			}
			if man.CompactThrough != 0 || man.Version != ManifestVersion {
				t.Fatalf("manifest after recovery = %+v, want CompactThrough cleared", man)
			}
			// The rolled-forward chunk serves the values the pass was writing.
			dc := snap[col]
			for i, p := range dc.Pos {
				if p/chunk != k {
					continue
				}
				var got uint64
				if dc.Width == 2 {
					v, err := sharestore.ReadRange[uint16](re.opts.Store, "t", col, p, 1)
					if err != nil {
						t.Fatal(err)
					}
					got = uint64(v[0])
				} else {
					v, err := sharestore.ReadRange[uint64](re.opts.Store, "t", col, p, 1)
					if err != nil {
						t.Fatal(err)
					}
					got = v[0]
				}
				if got != dc.Vals[i] {
					t.Fatalf("%s cell %d = %d after roll-forward, want %d", col, p, got, dc.Vals[i])
				}
			}
		})
	}
}

// TestCompactionLostChunk: the chunk file an overlay entry lands in is
// lost. The pass fails instead of rebuilding the chunk from zeros and
// the entry, the chunk keeps failing reads, a query's included, instead
// of answering, and the next start quarantines the table.
func TestCompactionLostChunk(t *testing.T) {
	const b, chunk = 256, 32
	dir := t.TempDir()
	e := compactEngine(t, dir, b, chunk)
	storeFull(t, []*Engine{e}, b, false)
	col := colKey(0, "chi")
	k := pendingUpdates(t, e, b, 3, 11)[col].Pos[0] / chunk
	if err := os.Remove(filepath.Join(dir, "t", col+".colv2", fmt.Sprintf("c%d.ck", k))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact("t"); err == nil {
		t.Fatal("a pass over a lost chunk succeeded")
	}
	if v, err := sharestore.ReadRange[uint16](e.opts.Store, "t", col, k*chunk, chunk); err == nil {
		t.Fatalf("the lost chunk reads %v after the pass", v)
	}
	if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t", QueryID: "q"}); err == nil {
		t.Fatal("a query over the lost chunk answered")
	}
	e.Close()
	re := compactEngine(t, dir, b, chunk)
	rep, err := re.RecoveryReport()
	if err != nil {
		t.Fatal(err)
	}
	wantQuarantined(t, re, rep, "column-corrupt")
}

// TestCompactionSkipsReoutsourcedOwner re-outsources both owners while a
// pass runs — on disk after the pass records CompactThrough, in memory
// before its swap — and checks the pass leaves the new registrations as
// uploaded: it must not patch the new columns with, or swap over them,
// values of the share streams they replaced.
func TestCompactionSkipsReoutsourcedOwner(t *testing.T) {
	const b, chunk = 256, 32
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			dir := t.TempDir()
			var e *Engine
			point := "swap"
			if disk {
				e, point = compactEngine(t, dir, b, chunk), "through"
			} else {
				e = New(fullView(t, 0, 2, b), Options{Threads: 2})
			}
			storeFull(t, []*Engine{e}, b, false)
			var uploaded map[string]map[string]fileState
			if disk {
				uploaded = columnFiles(t, e, dir)
			}
			pendingUpdates(t, e, b, 3, 11)
			var fresh map[int]*ownerCols
			e.SetCompactStepHook(func(step string) error {
				if step == point {
					storeFull(t, []*Engine{e}, b, false) // the same shares as the first upload
					fresh = maps.Clone(e.tables["t"].owners)
				}
				return nil
			})
			if _, err := e.Compact("t"); err != nil {
				t.Fatal(err)
			}
			if fresh == nil {
				t.Fatalf("the pass never reached %q", point)
			}
			for j, oc := range fresh {
				if e.tables["t"].owners[j] != oc {
					t.Errorf("owner %d: the pass replaced the re-outsourced registration", j)
				}
			}
			if !disk {
				return
			}
			for col, files := range columnFiles(t, e, dir) {
				for name, f := range files {
					if !bytes.Equal(f.data, uploaded[col][name].data) {
						t.Errorf("column %s: %s differs from the re-outsourced upload", col, name)
					}
				}
			}
		})
	}
}

// TestCloseWaitsForTriggeredCompaction: the pass an update past DeltaMax
// starts is the engine's background work too. Close, called while that
// pass is parked at its first ordering point, returns only after the
// pass has finished: nothing patches, swaps or deletes in the store of a
// closed engine.
func TestCloseWaitsForTriggeredCompaction(t *testing.T) {
	const b = 64
	st, err := sharestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetChunkCells(16)
	e := New(fullView(t, 0, 2, b), Options{Threads: 2, Store: st, DeltaMax: 1})
	storeFull(t, []*Engine{e}, b, false)
	parked, release := make(chan struct{}), make(chan struct{})
	e.SetCompactStepHook(func(step string) error {
		if step == "through" {
			close(parked)
			<-release
		}
		return nil
	})
	if _, err := e.Handle(context.Background(), protocol.StoreDeltaRequest{
		Owner: 0, Table: "t", Pos: []uint64{5}, Chi: []uint16{7}, Sums: map[string][]uint64{"v": {9}}, Cnt: []uint64{1},
	}); err != nil {
		t.Fatal(err)
	}
	<-parked
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(release)
		t.Fatal("Close returned while the triggered pass was parked")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if n := e.tables["t"].delta.entryCount(); n != 0 {
		t.Fatalf("Close returned before the pass folded the update: %d entries pending", n)
	}
}
