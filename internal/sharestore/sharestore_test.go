package sharestore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"prism/internal/protocol"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// readAll loads a whole column.
func readAll[T Cell](s *Store, table, col string) ([]T, error) {
	info, err := s.Stat(table, col)
	if err != nil {
		return nil, err
	}
	return ReadRange[T](s, table, col, 0, info.Cells)
}

func TestRoundTrip(t *testing.T) {
	t.Run("uint16", func(t *testing.T) { roundTrip[uint16](t, []uint16{0, 1, 113, 65535}) })
	t.Run("uint64", func(t *testing.T) { roundTrip[uint64](t, []uint64{0, 1, 1 << 40, 1<<64 - 1}) })
}

// roundTrip writes and re-reads random columns of T, always including
// the edge values given.
func roundTrip[T Cell](t *testing.T, edges []T) {
	s := testStore(t)
	f := func(data []T) bool {
		data = append(data, edges...)
		if err := Write(s, "lineitem", "o0.chi", data); err != nil {
			t.Fatal(err)
		}
		got, err := readAll[T](s, "lineitem", "o0.chi")
		if err != nil {
			t.Fatal(err)
		}
		return slices.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyColumn(t *testing.T) {
	s := testStore(t)
	if err := s.WriteU16("t", "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := readAll[uint16](s, "t", "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d", len(got))
	}
}

func TestWidthMismatchRejected(t *testing.T) {
	s := testStore(t)
	if err := s.WriteU16("t", "c", []uint16{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll[uint64](s, "t", "c"); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := testStore(t)
	if err := s.WriteU64("t", "c", []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "t", "c.colv2", "c0.ck")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip payload bits
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll[uint64](s, "t", "c"); err == nil {
		t.Fatal("payload corruption not detected")
	}
}

func TestTruncationDetected(t *testing.T) {
	s := testStore(t)
	if err := s.WriteU64("t", "c", []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "t", "c.colv2", "c0.ck")
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll[uint64](s, "t", "c"); err == nil {
		t.Fatal("truncation not detected")
	}
}

// TestLegacyColumnFileIsNotAColumn: a "<col>.col" file written by a
// build that predates the chunked layout is not a column — nothing opens
// it — and dropping its table still removes it.
func TestLegacyColumnFileIsNotAColumn(t *testing.T) {
	s := testStore(t)
	// The old monolithic format, byte for byte: magic, version 1, width,
	// cell count, CRC32 of the payload, payload.
	payload := []byte{10, 0, 20, 0, 30, 0}
	raw := append([]byte("PRSM\x01\x02"), 3, 0, 0, 0, 0, 0, 0, 0)
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
	raw = append(raw, payload...)
	path := filepath.Join(s.Dir(), "t", "c.col")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if s.HasColumn("t", "c") {
		t.Error("HasColumn sees a legacy file")
	}
	if _, err := s.Stat("t", "c"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Stat = %v, want ErrNotFound", err)
	}
	if _, err := ReadRange[uint16](s, "t", "c", 0, 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadRange = %v, want ErrNotFound", err)
	}
	if err := s.VerifyColumn("t", "c", 2, 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("VerifyColumn = %v, want ErrNotFound", err)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Dir(path)); !os.IsNotExist(err) {
		t.Errorf("DropTable left the table directory behind: %v", err)
	}
}

func TestDropTable(t *testing.T) {
	s := testStore(t)
	s.WriteU16("t", "c", []uint16{1})
	if !s.HasColumn("t", "c") {
		t.Fatal("column missing after write")
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if s.HasColumn("t", "c") {
		t.Fatal("column survives drop")
	}
}

func TestTables(t *testing.T) {
	s := testStore(t)
	s.WriteU16("beta", "c", []uint16{1})
	s.WriteU16("alpha", "c", []uint16{1})
	tables, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0] != "alpha" || tables[1] != "beta" {
		t.Fatalf("tables = %v", tables)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	s := testStore(t)
	spec := protocol.TableSpec{Name: "lineitem", B: 100, AggCols: []string{"PK", "DT"}, HasVerify: true}
	if err := s.WriteManifest("lineitem", spec); err != nil {
		t.Fatal(err)
	}
	var got protocol.TableSpec
	if err := s.ReadManifest("lineitem", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != spec.Name || got.B != spec.B || len(got.AggCols) != 2 || !got.HasVerify {
		t.Fatalf("manifest mismatch: %+v", got)
	}
}

func TestSanitizeHostileNames(t *testing.T) {
	s := testStore(t)
	// Path traversal attempts must stay inside the store directory.
	if err := s.WriteU16("../../etc", "../passwd", []uint16{1}); err != nil {
		t.Fatal(err)
	}
	got, err := readAll[uint16](s, "../../etc", "../passwd")
	if err != nil || len(got) != 1 {
		t.Fatal("sanitised round trip failed")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "..", "..", "etc")); err == nil {
		t.Fatal("escaped the store directory")
	}
}

// TestSanitizeInjective pins the fix for the name-collision clobber:
// "a/b" and "a_b" used to sanitise onto the same on-disk path, so
// storing one silently overwrote the other's columns.
func TestSanitizeInjective(t *testing.T) {
	s := testStore(t)
	if err := s.WriteU16("a/b", "c", []uint16{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU16("a_b", "c", []uint16{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU16("a:b", "c", []uint16{3}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint16{"a/b": 1, "a_b": 2, "a:b": 3} {
		got, err := readAll[uint16](s, name, "c")
		if err != nil {
			t.Fatalf("table %q: %v", name, err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("table %q clobbered: got %v, want [%d]", name, got, want)
		}
	}
	// Same collision for column names within one table.
	if err := s.WriteU16("t", "x/y", []uint16{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU16("t", "x_y", []uint16{2}); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll[uint16](s, "t", "x/y"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("column x/y clobbered: %v", got)
	}
	// Safe names keep their natural paths (no hash suffix churn).
	if sanitize("plain-name_0.9") != "plain-name_0.9" {
		t.Fatal("safe name was rewritten")
	}
	// Pairwise distinctness, including the second-order collision: a safe
	// name equal to another name's hashed form must not share its path.
	names := []string{"a/b", "a_b", "a:b", sanitize("a/b"), "x-deadbeef"}
	seen := map[string]string{}
	for _, n := range names {
		s := sanitize(n)
		if prev, ok := seen[s]; ok {
			t.Fatalf("sanitize(%q) == sanitize(%q) == %q", n, prev, s)
		}
		seen[s] = n
	}
}

func TestOverwrite(t *testing.T) {
	s := testStore(t)
	s.WriteU16("t", "c", []uint16{1, 2, 3})
	s.WriteU16("t", "c", []uint16{9})
	got, err := readAll[uint16](s, "t", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("overwrite failed: %v", got)
	}
}

func BenchmarkRead5MU16(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]uint16, 5_000_000)
	if err := s.WriteU16("t", "c", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readAll[uint16](s, "t", "c"); err != nil {
			b.Fatal(err)
		}
	}
}
