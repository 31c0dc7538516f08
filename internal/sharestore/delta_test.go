package sharestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func encodeDeltaSeg(seq uint64, cols []DeltaCol) []byte { return appendDeltaSeg(nil, seq, cols) }

// appendDeltaFrame appends rec to a log: its length prefix, then rec.
func appendDeltaFrame(log, rec []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(log, uint32(len(rec))), rec...)
}

// logFiles lists the names in a table's delta log directory.
func logFiles(t *testing.T, s *Store, table string) []string {
	t.Helper()
	entries, err := os.ReadDir(s.deltaDir(table))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// seqsOf is the sequence of each record.
func seqsOf(recs []DeltaRecord) []uint64 {
	out := []uint64{}
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

// readLog reads a table's delta log through a second Store over the same
// directory, as a restarted server would.
func readLog(t *testing.T, s *Store, table string) ([]DeltaRecord, error) {
	t.Helper()
	again, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return again.ReadDeltaLog(table)
}

// TestDeltaSegRoundTrip: appends land as records of one open file, read
// back whole and in order; a seal makes the next append open a new file
// and reports the sealed ones; a sealed file deletes, the open one does
// not; Close releases every descriptor and the store stays usable.
func TestDeltaSegRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := []DeltaRecord{
		{Seq: 1, Cols: []DeltaCol{{Name: "o1.chi", Width: 2, Pos: []uint64{0}, Vals: []uint64{99}}}},
		{Seq: 3, Cols: []DeltaCol{
			{Name: "o0.chi", Width: 2, Pos: []uint64{5, 900}, Vals: []uint64{7, 42}},
			{Name: "o0.sum.DT", Width: 8, Pos: []uint64{5}, Vals: []uint64{1 << 40}},
		}},
		{Seq: 7, Cols: []DeltaCol{}}, // a record may carry no columns
	}
	for _, r := range recs {
		if err := s.AppendDeltaSeg("tbl", r.Seq, r.Cols); err != nil {
			t.Fatalf("append %d: %v", r.Seq, err)
		}
	}
	if got := logFiles(t, s, "tbl"); !reflect.DeepEqual(got, []string{"l1.dlog"}) {
		t.Fatalf("three appends left files %v, want [l1.dlog]", got)
	}
	got, err := readLog(t, s, "tbl")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("read back %+v\nwant %+v", got, recs)
	}
	if got, err := s.ReadDeltaLog("other"); err != nil || len(got) != 0 {
		t.Fatalf("table with no log: %v %v", got, err)
	}

	sealed, err := s.SealDeltaLog("tbl")
	if err != nil || !reflect.DeepEqual(sealed, []uint64{1}) {
		t.Fatalf("seal = %v, %v; want [1]", sealed, err)
	}
	if err := s.AppendDeltaSeg("tbl", 9, recs[0].Cols); err != nil {
		t.Fatal(err)
	}
	if got := logFiles(t, s, "tbl"); !reflect.DeepEqual(got, []string{"l1.dlog", "l9.dlog"}) {
		t.Fatalf("append after a seal left files %v, want [l1.dlog l9.dlog]", got)
	}
	if got, err := readLog(t, s, "tbl"); err != nil || !reflect.DeepEqual(seqsOf(got), []uint64{1, 3, 7, 9}) {
		t.Fatalf("read across files = %v, %v", seqsOf(got), err)
	}
	if err := s.DeleteDeltaLog("tbl", 9); err == nil {
		t.Error("deleted the file open for appends")
	}
	for range 2 { // missing is not an error
		if err := s.DeleteDeltaLog("tbl", 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := logFiles(t, s, "tbl"); !reflect.DeepEqual(got, []string{"l9.dlog"}) {
		t.Fatalf("after delete: %v", got)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.logs) != 0 {
		t.Fatalf("Close left %d log files open", len(s.logs))
	}
	if err := s.AppendDeltaSeg("tbl", 10, recs[0].Cols); err != nil {
		t.Fatal(err)
	}
	if got, err := readLog(t, s, "tbl"); err != nil || !reflect.DeepEqual(seqsOf(got), []uint64{9, 10}) {
		t.Fatalf("append after Close: %v, %v", seqsOf(got), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSegTornSegmentRejected cuts the newest file's last record at
// every byte:
// the read returns the records before it and truncates the file to them,
// and the next append follows them. The same cut in a file a newer
// one follows, a flipped byte in a whole record, and a record out of
// sequence order are corrupt.
func TestDeltaSegTornSegmentRejected(t *testing.T) {
	cols := []DeltaCol{{Name: "o0.chi", Width: 2, Pos: []uint64{1, 2, 3}, Vals: []uint64{4, 5, 6}}}
	build := func(t *testing.T, seqs ...uint64) (*Store, string, int) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if err := s.AppendDeltaSeg("tbl", seq, cols); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return s, deltaLogPath(s.deltaDir("tbl"), seqs[0]), deltaLenPrefix + deltaSegLen(cols)
	}
	write := func(t *testing.T, path string, raw []byte) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, path, rec := build(t, 1, 2, 3)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 2*rec + 1; cut < 3*rec; cut++ {
		write(t, path, whole[:cut])
		s, err := Open(filepath.Dir(filepath.Dir(filepath.Dir(path))))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadDeltaLog("tbl")
		if err != nil || !reflect.DeepEqual(seqsOf(got), []uint64{1, 2}) {
			t.Fatalf("cut at %d: read %v, %v; want records 1 and 2", cut, seqsOf(got), err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(2*rec) {
			t.Fatalf("cut at %d: file not truncated to its whole records: %v %v", cut, fi.Size(), err)
		}
		if err := s.AppendDeltaSeg("tbl", 4, cols); err != nil {
			t.Fatal(err)
		}
		if got, err := readLog(t, s, "tbl"); err != nil || !reflect.DeepEqual(seqsOf(got), []uint64{1, 2, 4}) {
			t.Fatalf("cut at %d, then an append: %v, %v", cut, seqsOf(got), err)
		}
		if _, err := s.SealDeltaLog("tbl"); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteDeltaLog("tbl", 4); err != nil {
			t.Fatal(err)
		}
	}

	corrupt := map[string]func(t *testing.T) *Store{
		"torn before a newer file": func(t *testing.T) *Store {
			s, path, rec := build(t, 1, 2)
			if err := os.Truncate(path, int64(2*rec-1)); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendDeltaSeg("tbl", 3, cols); err != nil {
				t.Fatal(err)
			}
			return s
		},
		"flipped byte": func(t *testing.T) *Store {
			s, path, _ := build(t, 1, 2)
			raw, _ := os.ReadFile(path)
			raw[deltaLenPrefix+deltaHeaderLen+20] ^= 1
			write(t, path, raw)
			return s
		},
		"flipped last byte": func(t *testing.T) *Store {
			s, path, _ := build(t, 1, 2)
			raw, _ := os.ReadFile(path)
			raw[len(raw)-1] ^= 1
			write(t, path, raw)
			return s
		},
		"no record past the end": func(t *testing.T) *Store {
			s, path, _ := build(t, 1)
			raw, _ := os.ReadFile(path)
			write(t, path, append(raw, 0xff, 0xff, 0, 0, 'X'))
			return s
		},
		"out of order": func(t *testing.T) *Store { s, _, _ := build(t, 2, 1); return s },
		"below the file's name": func(t *testing.T) *Store {
			s, path, _ := build(t, 5)
			if err := os.Rename(path, deltaLogPath(s.deltaDir("tbl"), 6)); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, mk := range corrupt {
		t.Run(name, func(t *testing.T) {
			if got, err := readLog(t, mk(t), "tbl"); !errors.Is(err, ErrDeltaCorrupt) || !strings.Contains(err.Error(), ".dlog") {
				t.Fatalf("read %v, %v; want ErrDeltaCorrupt naming the file", seqsOf(got), err)
			}
		})
	}
}

// TestDeltaLogFailedAppend: an append whose write fails and whose file
// cannot be cut back keeps its torn record the newest file's last —
// further appends and seals refuse — and a restart's read recovers every
// record before it.
func TestDeltaLogFailedAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cols := []DeltaCol{{Name: "o0.v", Width: 8, Pos: []uint64{1}, Vals: []uint64{2}}}
	if err := s.AppendDeltaSeg("tbl", 1, cols); err != nil {
		t.Fatal(err)
	}
	l := s.logs[s.tableDir("tbl")]
	ro, err := os.Open(l.f.Name()) // writes and truncates fail on it
	if err != nil {
		t.Fatal(err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	l.f = ro
	if err := s.AppendDeltaSeg("tbl", 2, cols); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	if err := s.AppendDeltaSeg("tbl", 3, cols); err == nil || !strings.Contains(err.Error(), "could not be cut off") {
		t.Fatalf("append after an append that could not be cut off: %v", err)
	}
	if _, err := s.SealDeltaLog("tbl"); err == nil {
		t.Fatal("sealed a log that ends in a torn record")
	}
	if got, err := readLog(t, s, "tbl"); err != nil || !reflect.DeepEqual(seqsOf(got), []uint64{1}) {
		t.Fatalf("restart read = %v, %v; want record 1", seqsOf(got), err)
	}
}

// TestAppendDeltaSegAfterDrop: moving a table aside (QuarantineTable,
// the one way a store lets a table go) closes its open log file — a log
// that refused appends included — so an append after it makes the
// directory and a new file again.
func TestAppendDeltaSegAfterDrop(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seg := []DeltaCol{{Name: "o0.chi", Width: 2, Pos: []uint64{1}, Vals: []uint64{2}}}
	for _, broken := range []bool{false, true} {
		if err := s.AppendDeltaSeg("tbl", 1, seg); err != nil {
			t.Fatal(err)
		}
		if broken {
			s.logs[s.tableDir("tbl")].err = errors.New("refusing appends")
		}
		if err := s.QuarantineTable("tbl", "test", ""); err != nil {
			t.Fatal(err)
		}
		if len(s.logs) != 0 {
			t.Fatalf("broken=%v: the dropped table's log is still open", broken)
		}
		if err := s.AppendDeltaSeg("tbl", 2, seg); err != nil {
			t.Fatalf("broken=%v: append after the drop: %v", broken, err)
		}
		if got, err := readLog(t, s, "tbl"); err != nil || !reflect.DeepEqual(seqsOf(got), []uint64{2}) {
			t.Fatalf("broken=%v: records after drop and append = %v, %v; want [2]", broken, seqsOf(got), err)
		}
		if err := s.QuarantineTable("tbl", "test", ""); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDeltaLog hardens the log parser every boot reads through:
//
//  1. arbitrary bytes as a log file give whole records — exactly the
//     bytes they re-encode to — and at most a typed error (torn or
//     ErrDeltaCorrupt) for what follows them, never a panic or an
//     allocation sized from a length field;
//  2. a valid log, built from records the bytes derive, cut at any byte
//     gives exactly the records before the cut and, unless the cut falls
//     on a record boundary, one torn tail.
func FuzzDeltaLog(f *testing.F) {
	one := appendDeltaFrame(nil, encodeDeltaSeg(4, []DeltaCol{{Name: "o0.chi", Width: 2, Pos: []uint64{1}, Vals: []uint64{2}}}))
	f.Add(one, uint16(0))
	f.Add(append(append([]byte(nil), one...), one[:9]...), uint16(30))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'P', 'R'}, uint16(5))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint16) {
		recs, whole, err := parseDeltaLog(raw)
		if whole > len(raw) || (err == nil) != (whole == len(raw)) {
			t.Fatalf("parsed %d of %d bytes with error %v", whole, len(raw), err)
		}
		if err != nil && !errors.Is(err, errDeltaTorn) && !errors.Is(err, ErrDeltaCorrupt) {
			t.Fatalf("untyped error %v", err)
		}
		var again []byte
		for _, r := range recs {
			again = appendDeltaFrame(again, encodeDeltaSeg(r.Seq, r.Cols))
		}
		if !bytes.Equal(again, raw[:whole]) {
			t.Fatalf("records re-encode to %x, parsed from %x", again, raw[:whole])
		}

		// A valid log: one record per 3 input bytes, cut at cut.
		var log []byte
		var ends []int
		for i := 0; i+2 < len(raw) && len(ends) < 8; i += 3 {
			c := DeltaCol{Name: fmt.Sprintf("o%d.chi", raw[i]%3), Width: 2 + 6*int(raw[i]&1)}
			for k := 0; k < int(raw[i+1]%4); k++ {
				c.Pos = append(c.Pos, uint64(raw[i+2])+uint64(k))
				c.Vals = append(c.Vals, uint64(binary.LittleEndian.Uint16(raw[i+1:i+3])))
			}
			log = appendDeltaFrame(log, encodeDeltaSeg(uint64(i+1), []DeltaCol{c}))
			ends = append(ends, len(log))
		}
		k := int(cut) % (len(log) + 1)
		recs, whole, err = parseDeltaLog(log[:k])
		n := 0
		for n < len(ends) && ends[n] <= k {
			n++
		}
		if len(recs) != n || (n > 0 && whole != ends[n-1]) || (n == 0 && whole != 0) {
			t.Fatalf("cut at %d of %d: %d records in %d bytes, want %d", k, len(log), len(recs), whole, n)
		}
		if atEnd := whole == k; atEnd != (err == nil) || (!atEnd && !errors.Is(err, errDeltaTorn)) {
			t.Fatalf("cut at %d (whole records end at %d): error %v", k, whole, err)
		}
	})
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
	// A chunk no window has written — on a registered table, a lost
	// file — fails the patch as it fails a read: the pass never rebuilds
	// it from zeros.
	if err := Create[uint64](s, "tbl", "sparse", 64); err != nil {
		t.Fatal(err)
	}
	if err := s.PatchCells("tbl", "sparse", 8, []uint64{40}, []uint64{7}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("patch of an unwritten chunk = %v, want fs.ErrNotExist", err)
	}
	if _, err := s.ReadU64Range("tbl", "sparse", 32, 16); err == nil {
		t.Error("the unwritten chunk reads after the failed patch")
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
