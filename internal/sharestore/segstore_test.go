package sharestore

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prism/internal/prg"
)

// chunkedStore opens a store with a small chunk size so tests cross
// chunk boundaries cheaply.
func chunkedStore(t *testing.T, chunkCells uint64) *Store {
	t.Helper()
	s := testStore(t)
	s.SetChunkCells(chunkCells)
	return s
}

func TestRangedWriteReadRoundTrip(t *testing.T) {
	t.Run("uint16", rangedWriteReadRoundTrip[uint16])
	t.Run("uint64", rangedWriteReadRoundTrip[uint64])
}

func rangedWriteReadRoundTrip[T Cell](t *testing.T) {
	s := chunkedStore(t, 8)
	const cells = 100
	ref := make([]T, cells)
	if err := Create[T](s, "t", "c", cells); err != nil {
		t.Fatal(err)
	}
	g := prg.New(prg.SeedFromString("ranged"))
	// Patch random windows, mirroring into the reference column.
	for iter := 0; iter < 50; iter++ {
		off := g.Uint64n(cells)
		n := 1 + g.Uint64n(cells-off)
		win := make([]T, n)
		for i := range win {
			win[i] = T(g.Uint64())
		}
		copy(ref[off:], win)
		if err := WriteRange(s, "t", "c", off, win); err != nil {
			t.Fatalf("write [%d,%d): %v", off, off+n, err)
		}
		// Read back a random window and compare against the reference.
		roff := g.Uint64n(cells)
		rn := 1 + g.Uint64n(cells-roff)
		got, err := ReadRange[T](s, "t", "c", roff, rn)
		if err != nil {
			t.Fatalf("read [%d,%d): %v", roff, roff+rn, err)
		}
		if !slices.Equal(got, ref[roff:roff+rn]) {
			t.Fatalf("iter %d: window [%d,%d) = %v, want %v", iter, roff, roff+rn, got, ref[roff:roff+rn])
		}
	}
	// Whole-column read agrees too.
	got, err := readAll[T](s, "t", "c")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ref) {
		t.Fatalf("full read = %v, want %v", got, ref)
	}
}

func TestRangedU64AndChunkReads(t *testing.T) {
	s := chunkedStore(t, 4)
	data := make([]uint64, 11)
	for i := range data {
		data[i] = uint64(i * 1000)
	}
	if err := s.WriteU64("t", "c", data); err != nil {
		t.Fatal(err)
	}
	info, err := s.Stat("t", "c")
	if err != nil {
		t.Fatal(err)
	}
	if info.Width != 8 || info.Cells != 11 || info.ChunkCells != 4 {
		t.Fatalf("info = %+v", info)
	}
	if info.NumChunks() != 3 {
		t.Fatalf("chunks = %d, want 3", info.NumChunks())
	}
	// The tail chunk is short.
	tail, err := ReadChunk[uint64](s, "t", "c", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0] != 8000 || tail[2] != 10000 {
		t.Fatalf("tail chunk = %v", tail)
	}
	// A cross-chunk window.
	win, err := s.ReadU64Range("t", "c", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range win {
		if win[i] != uint64((3+i)*1000) {
			t.Fatalf("win[%d] = %d", i, win[i])
		}
	}
	// Out-of-bounds windows are rejected.
	if _, err := s.ReadU64Range("t", "c", 8, 4); err == nil {
		t.Error("out-of-bounds read accepted")
	}
	if err := WriteRange(s, "t", "c", 10, []uint64{1, 2}); err == nil {
		t.Error("out-of-bounds write accepted")
	}
}

func TestRangedWriteOnMissingColumn(t *testing.T) {
	s := chunkedStore(t, 8)
	if err := WriteRange(s, "t", "ghost", 0, []uint16{1}); err == nil {
		t.Fatal("ranged write on missing column accepted")
	}
}

// TestCrashRecoveryTornChunk simulates a crash mid-chunk-write: the temp
// file is left behind and the chunk file holds torn (corrupt) bytes. The
// CRC must reject the torn chunk, the stray temp file must be ignored,
// and every other chunk must stay readable — so a table reloads from its
// last-good state.
func TestCrashRecoveryTornChunk(t *testing.T) {
	s := chunkedStore(t, 4)
	data := make([]uint16, 12) // 3 chunks
	for i := range data {
		data[i] = uint16(i + 1)
	}
	if err := s.WriteU16("t", "c", data); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(s.Dir(), "t", "c.colv2")
	// Crash artefact 1: a stray temp file from an interrupted write.
	if err := os.WriteFile(filepath.Join(dir, "c1.ck.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash artefact 2: chunk 1 torn mid-write (payload bytes flipped,
	// CRC now stale).
	path := filepath.Join(dir, "c1.ck")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen the store from the same directory (a restarted server).
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	// The torn chunk's window is rejected by CRC...
	if _, err := s2.ReadU16Range("t", "c", 4, 4); err == nil {
		t.Fatal("torn chunk served")
	}
	if _, err := readAll[uint16](s2, "t", "c"); err == nil {
		t.Fatal("full read spanning the torn chunk served")
	}
	// ...while the neighbouring chunks still serve last-good data.
	for _, win := range [][2]uint64{{0, 4}, {8, 4}} {
		got, err := s2.ReadU16Range("t", "c", win[0], win[1])
		if err != nil {
			t.Fatalf("good chunk [%d,%d): %v", win[0], win[0]+win[1], err)
		}
		for i, v := range got {
			if v != data[win[0]+uint64(i)] {
				t.Fatalf("good chunk cell %d corrupted", win[0]+uint64(i))
			}
		}
	}
	// A rewrite of the torn window repairs the column.
	if err := WriteRange(s2, "t", "c", 4, data[4:8]); err != nil {
		t.Fatal(err)
	}
	got, err := readAll[uint16](s2, "t", "c")
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("post-repair cell %d = %d, want %d", i, got[i], data[i])
		}
	}
}

// TestPartialChunkWriteLeavesNeighbours: patching a window that covers
// only part of a chunk must preserve the chunk's other cells.
func TestPartialChunkWriteLeavesNeighbours(t *testing.T) {
	s := chunkedStore(t, 8)
	base := make([]uint16, 16)
	for i := range base {
		base[i] = 100 + uint16(i)
	}
	if err := s.WriteU16("t", "c", base); err != nil {
		t.Fatal(err)
	}
	if err := WriteRange(s, "t", "c", 6, []uint16{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := readAll[uint16](s, "t", "c")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint16(nil), base...)
	copy(want[6:], []uint16{1, 2, 3, 4})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSparseCreateReadsZeroesAfterFill: windows written out of order
// through a created column; unwritten cells in partially-covered chunks
// read as zero, fully unwritten chunks are reported missing.
func TestSparseCreateWindows(t *testing.T) {
	s := chunkedStore(t, 4)
	if err := Create[uint16](s, "t", "c", 12); err != nil {
		t.Fatal(err)
	}
	// Write the middle window only: covers chunk 1 fully and nothing else.
	if err := WriteRange(s, "t", "c", 4, []uint16{41, 42, 43, 44}); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadU16Range("t", "c", 4, 4)
	if err != nil || got[0] != 41 || got[3] != 44 {
		t.Fatalf("middle window: %v %v", got, err)
	}
	// Chunk 0 was never written: reading it fails rather than fabricating
	// data.
	if _, err := s.ReadU16Range("t", "c", 0, 4); err == nil {
		t.Error("unwritten chunk served")
	}
	// A partial write into chunk 0 zero-fills the rest of that chunk.
	if err := WriteRange(s, "t", "c", 1, []uint16{7}); err != nil {
		t.Fatal(err)
	}
	got, err = s.ReadU16Range("t", "c", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 7 || got[2] != 0 {
		t.Fatalf("partially-written chunk = %v", got)
	}
}

func TestCreateReplacesColumn(t *testing.T) {
	s := chunkedStore(t, 4)
	if err := s.WriteU16("t", "c", []uint16{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := Create[uint16](s, "t", "c", 3); err != nil {
		t.Fatal(err)
	}
	info, err := s.Stat("t", "c")
	if err != nil || info.Cells != 3 {
		t.Fatalf("recreated info = %+v, err %v", info, err)
	}
	// Old chunks must not leak into the fresh column.
	if _, err := s.ReadU16Range("t", "c", 0, 3); err == nil {
		t.Error("stale chunk visible after recreate")
	}
}

func TestDeleteColumn(t *testing.T) {
	s := chunkedStore(t, 4)
	if err := s.WriteU16("t", "o0.chi", []uint16{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteColumn("t", "o0.chi"); err != nil {
		t.Fatal(err)
	}
	if s.HasColumn("t", "o0.chi") {
		t.Error("column survives delete")
	}
	if err := s.DeleteColumn("t", "ghost"); err != nil {
		t.Error("deleting a missing column errored:", err)
	}
}

// TestTablesRawNames pins the Tables() fix: names needing sanitisation
// must be listed as stored, not as their hashed directory names.
func TestTablesRawNames(t *testing.T) {
	s := testStore(t)
	for _, name := range []string{"plain", "a/b", "owners:2021"} {
		if err := s.WriteU16(name, "c", []uint16{1}); err != nil {
			t.Fatal(err)
		}
	}
	tables, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"plain": true, "a/b": true, "owners:2021": true}
	if len(tables) != len(want) {
		t.Fatalf("tables = %v", tables)
	}
	for _, name := range tables {
		if !want[name] {
			t.Errorf("unexpected table name %q", name)
		}
		if strings.Contains(name, ".colv2") {
			t.Errorf("layout suffix leaked into name %q", name)
		}
	}
	// Manifest-only tables are named too.
	if err := s.WriteManifest("manifest/only", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	tables, _ = s.Tables()
	found := false
	for _, name := range tables {
		if name == "manifest/only" {
			found = true
		}
	}
	if !found {
		t.Errorf("manifest-only table missing raw name: %v", tables)
	}
}

func TestChunkIndexRejectsGarbage(t *testing.T) {
	s := chunkedStore(t, 4)
	if err := s.WriteU16("t", "c", []uint16{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "t", "c.colv2", "index")
	for _, mut := range []func([]byte) []byte{
		func(b []byte) []byte { b[5] ^= 0xff; return b },        // width bits
		func(b []byte) []byte { b[10] ^= 0x01; return b },       // chunkCells bits
		func(b []byte) []byte { return b[:len(b)-1] },           // truncated
		func(b []byte) []byte { return []byte("JUNKJUNKJUNK") }, // junk
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mut(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		// A fresh store: s memoised the index when it wrote the column.
		fresh, err := Open(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Stat("t", "c"); err == nil {
			t.Fatal("corrupted index accepted")
		}
		if _, err := readAll[uint16](fresh, "t", "c"); err == nil {
			t.Fatal("read through corrupted index accepted")
		}
		// Restore for the next mutation.
		if err := s.WriteU16("t", "c", []uint16{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
}
