package sharestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
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
