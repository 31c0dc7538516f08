package sharestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDeltaSegRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	segs := map[uint64][]DeltaCol{
		3: {
			{Name: "o0.chi", Width: 2, Pos: []uint64{5, 900}, Vals: []uint64{7, 42}},
			{Name: "o0.sum.DT", Width: 8, Pos: []uint64{5}, Vals: []uint64{1 << 40}},
		},
		1: {{Name: "o1.chi", Width: 2, Pos: []uint64{0}, Vals: []uint64{99}}},
		7: {}, // a segment may carry no columns (all-zero window)
	}
	for seq, cols := range segs {
		if err := s.AppendDeltaSeg("tbl", seq, cols); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	got, err := s.DeltaSegs("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("DeltaSegs = %v, want [1 3 7]", got)
	}
	cols, err := s.ReadDeltaSeg("tbl", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 {
		t.Fatalf("seg 3 columns = %d", len(cols))
	}
	if cols[0].Name != "o0.chi" || cols[0].Width != 2 || cols[0].Pos[1] != 900 || cols[0].Vals[1] != 42 {
		t.Errorf("seg 3 col 0 = %+v", cols[0])
	}
	if cols[1].Vals[0] != 1<<40 {
		t.Errorf("seg 3 col 1 = %+v", cols[1])
	}
	// Segments on a table with no log, and deletion.
	if segs, err := s.DeltaSegs("other"); err != nil || len(segs) != 0 {
		t.Fatalf("empty table: %v %v", segs, err)
	}
	if err := s.DeleteDeltaSeg("tbl", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDeltaSeg("tbl", 1); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	got, _ = s.DeltaSegs("tbl")
	if len(got) != 2 || got[0] != 3 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestDeltaSegTornSegmentRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDeltaSeg("tbl", 1, []DeltaCol{
		{Name: "o0.chi", Width: 2, Pos: []uint64{1, 2, 3}, Vals: []uint64{4, 5, 6}},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.deltaDir("tbl"), "d1.dseg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn write: truncated body.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDeltaSeg("tbl", 1); err == nil {
		t.Error("truncated segment read back without error")
	}
	// Bit flip under an intact length: CRC must catch it.
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadDeltaSeg("tbl", 1); err == nil {
		t.Error("corrupted segment read back without error")
	}
}

func TestPatchCells(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetChunkCells(16)
	base := make([]uint16, 100)
	for i := range base {
		base[i] = uint16(i)
	}
	if err := s.WriteU16("tbl", "c", base); err != nil {
		t.Fatal(err)
	}
	// Patch cells across three chunks, including the short tail chunk.
	if err := s.PatchCells("tbl", "c", 2, []uint64{0, 17, 99}, []uint64{1000, 1017, 1099}); err != nil {
		t.Fatal(err)
	}
	got, err := readAll[uint16](s, "tbl", "c")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]uint16{0: 1000, 17: 1017, 99: 1099, 1: 1, 98: 98} {
		if got[i] != want {
			t.Errorf("cell %d = %d, want %d", i, got[i], want)
		}
	}
	// Out-of-range positions must be rejected before any write.
	if err := s.PatchCells("tbl", "c", 2, []uint64{100}, []uint64{1}); err == nil {
		t.Error("out-of-range patch accepted")
	}
	// A created-but-never-written chunk patches over implicit zeros.
	if err := Create[uint64](s, "tbl", "sparse", 64); err != nil {
		t.Fatal(err)
	}
	if err := s.PatchCells("tbl", "sparse", 8, []uint64{40}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	u64, err := s.ReadU64Range("tbl", "sparse", 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if u64[40-32] != 7 || u64[39-32] != 0 {
		t.Errorf("sparse patch: cell 40 = %d, cell 39 = %d", u64[40-32], u64[39-32])
	}
}

// FuzzDeltaReplay drives two properties from one corpus:
//
//  1. parseDeltaSeg never panics or over-allocates on arbitrary bytes
//     (the untrusted-input contract shared with FuzzChunkIndex);
//  2. replay ordering — applying the fuzz-derived segments in
//     ascending seq order over a base column equals last-writer-wins
//     by seq per position, and replaying the log twice equals once
//     (idempotence, the property compaction crash-safety rests on).
func FuzzDeltaReplay(f *testing.F) {
	f.Add([]byte("PRSD"), uint8(3))
	f.Add(encodeDeltaSeg(9, []DeltaCol{{Name: "o0.chi", Width: 2, Pos: []uint64{1}, Vals: []uint64{2}}}), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, nsegs uint8) {
		if seq, cols, err := parseDeltaSeg(raw); err == nil {
			// Whatever parses must re-encode and re-parse identically.
			again, cols2, err2 := parseDeltaSeg(encodeDeltaSeg(seq, cols))
			if err2 != nil || again != seq || len(cols2) != len(cols) {
				t.Fatalf("round trip diverged: %v seq %d→%d cols %d→%d", err2, seq, again, len(cols), len(cols2))
			}
		}

		// Derive a deterministic update log from the raw bytes.
		const cells = 64
		type upd struct {
			seq uint64
			pos uint64
			val uint64
		}
		var log []upd
		for i := 0; i+2 < len(raw) && len(log) < int(nsegs)+1; i += 3 {
			log = append(log, upd{
				seq: uint64(i/3) + 1,
				pos: uint64(raw[i]) % cells,
				val: uint64(binary.LittleEndian.Uint16(raw[i+1 : i+3])),
			})
		}
		replay := func(base []uint64, log []upd) []uint64 {
			out := append([]uint64(nil), base...)
			for _, u := range log {
				out[u.pos] = u.val
			}
			return out
		}
		base := make([]uint64, cells)
		for i := range base {
			base[i] = uint64(i) * 3
		}
		once := replay(base, log)
		// Last-writer-wins by seq: the log is already seq-ascending.
		byPos := append([]uint64(nil), base...)
		last := make(map[uint64]uint64)
		for _, u := range log {
			if s, ok := last[u.pos]; !ok || u.seq >= s {
				last[u.pos] = u.seq
				byPos[u.pos] = u.val
			}
		}
		for i := range once {
			if once[i] != byPos[i] {
				t.Fatalf("replay order: cell %d = %d, last-writer-wins %d", i, once[i], byPos[i])
			}
		}
		// Idempotence: replaying the whole log over an already-replayed
		// base changes nothing.
		twice := replay(once, log)
		for i := range once {
			if twice[i] != once[i] {
				t.Fatalf("replay not idempotent at cell %d: %d → %d", i, once[i], twice[i])
			}
		}
	})
}

// TestPatchCellsStepTornRollForward stops a patch between a chunk's new
// CRC and its cells, as a crash would: the chunk then fails its reads,
// RollForward with the same values makes it whole (and leaves the
// other chunks alone), and a chunk with one more byte flipped stays an
// error naming it.
func TestPatchCellsStepTornRollForward(t *testing.T) {
	for _, flip := range []bool{false, true} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.SetChunkCells(16)
		base := make([]uint64, 64)
		for i := range base {
			base[i] = uint64(i)
		}
		if err := s.WriteU64("tbl", "c", base); err != nil {
			t.Fatal(err)
		}
		pos, vals := []uint64{40, 3, 41}, []uint64{1040, 1003, 1041} // chunks 0 and 2, out of order
		errCrash := errors.New("crash injected")
		err = s.PatchCellsStep("tbl", "c", 8, pos, vals, func(k uint64) error {
			if k == 2 {
				return errCrash
			}
			return nil
		})
		if !errors.Is(err, errCrash) || !errors.Is(err, ErrMidPatch) {
			t.Fatalf("patch ended with %v, want the crash mid-patch", err)
		}
		if _, err := s.ReadU64Range("tbl", "c", 32, 16); err == nil {
			t.Fatal("torn chunk read back without error")
		}
		if flip {
			path := chunkPath(s.colDir("tbl", "c"), 2)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[chunkHeaderLen+8*(47-32)] ^= 1 // cell 47: not one the patch writes
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.RollForward("tbl", "c", 8, pos, vals); err == nil || !strings.Contains(err.Error(), "c2.ck") {
				t.Fatalf("roll-forward of a corrupt chunk: %v, want an error naming c2.ck", err)
			}
			continue
		}
		if err := s.RollForward("tbl", "c", 8, pos, vals); err != nil {
			t.Fatalf("roll-forward: %v", err)
		}
		got, err := readAll[uint64](s, "tbl", "c")
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range map[int]uint64{3: 1003, 40: 1040, 41: 1041, 4: 4, 42: 42, 63: 63} {
			if got[i] != want {
				t.Errorf("cell %d = %d, want %d", i, got[i], want)
			}
		}
	}
}

// TestPatchCellsConcurrentReads reads a column over and over while
// patches rewrite cells in every one of its chunks: no read may catch a
// chunk between its new CRC and its cells, so none fails, and every cell
// read holds a value some patch (or the upload) wrote there.
func TestPatchCellsConcurrentReads(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const cells, chunk, rounds = 256, 64, 40
	s.SetChunkCells(chunk)
	if err := s.WriteU64("tbl", "c", make([]uint64, cells)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-done:
				return
			default:
			}
			got, err := s.ReadU64Range("tbl", "c", 0, cells)
			if err != nil {
				errs <- err
				return
			}
			for p, v := range got {
				if v != 0 && (v%cells != uint64(p) || v/cells > rounds) {
					errs <- fmt.Errorf("cell %d = %d, which no patch wrote", p, v)
					return
				}
			}
		}
	}()
	for r := uint64(1); r <= rounds; r++ {
		var pos, vals []uint64
		for p := r % 7; p < cells; p += 5 {
			pos, vals = append(pos, p), append(vals, r*cells+p)
		}
		if err := s.PatchCells("tbl", "c", 8, pos, vals); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatalf("read during the patches: %v", err)
	}
}

// TestAppendDeltaSegAfterDrop: the store remembers a table's delta log
// directory, and forgets it with the table, so an append after a drop
// makes the directory again.
func TestAppendDeltaSegAfterDrop(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seg := []DeltaCol{{Name: "o0.chi", Width: 2, Pos: []uint64{1}, Vals: []uint64{2}}}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := s.AppendDeltaSeg("tbl", seq, seg); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			if err := s.DropTable("tbl"); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := s.DeltaSegs("tbl")
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("segments after drop and append = %v, %v; want [2]", got, err)
	}
}
