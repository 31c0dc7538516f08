package sharestore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func verifyStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetChunkCells(8)
	return s
}

func TestVerifyColumn(t *testing.T) {
	s := verifyStore(t)
	data := make([]uint16, 20) // 3 chunks of 8, last partial
	for i := range data {
		data[i] = uint16(i)
	}
	if err := s.WriteU16("t", "c", data); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyColumn("t", "c", 2, 20); err != nil {
		t.Fatalf("clean column failed verification: %v", err)
	}
	// Shape disagreements are caught.
	if err := s.VerifyColumn("t", "c", 8, 20); err == nil {
		t.Error("wrong width passed verification")
	}
	if err := s.VerifyColumn("t", "c", 2, 24); err == nil {
		t.Error("wrong cell count passed verification")
	}
	if err := s.VerifyColumn("t", "missing", 2, 20); err == nil {
		t.Error("missing column passed verification")
	}
	// A missing chunk segment is caught even between the CRC spot-check
	// edges (the size/presence sweep covers every chunk).
	dir := s.colDir("t", "c")
	if err := os.Remove(filepath.Join(dir, "c1.ck")); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyColumn("t", "c", 2, 20); err == nil || !strings.Contains(err.Error(), "chunk 1") {
		t.Errorf("missing middle chunk not reported: %v", err)
	}
}

func TestVerifyColumnTornEdge(t *testing.T) {
	s := verifyStore(t)
	if err := s.WriteU16("t", "c", make([]uint16, 20)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit of the last chunk: same size, broken CRC.
	path := filepath.Join(s.colDir("t", "c"), "c2.ck")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyColumn("t", "c", 2, 20); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("torn edge chunk not reported: %v", err)
	}
}

func TestQuarantineTable(t *testing.T) {
	s := verifyStore(t)
	if err := s.WriteU16("t", "c", make([]uint16, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.QuarantineTable("t", "column-corrupt", "chunk 0 torn"); err != nil {
		t.Fatal(err)
	}
	// The live name is free and listings exclude the quarantine area.
	if s.HasColumn("t", "c") {
		t.Error("quarantined column still visible under the live name")
	}
	if tables, _ := s.Tables(); len(tables) != 0 {
		t.Errorf("Tables lists quarantined data: %v", tables)
	}
	qs, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || qs[0].Table != "t" || qs[0].Reason != "column-corrupt" || qs[0].When.IsZero() {
		t.Fatalf("quarantine record = %+v", qs)
	}
	// A fresh table under the same name, quarantined again, gets its own
	// numbered slot — the first record is preserved.
	if err := s.WriteU16("t", "c", make([]uint16, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.QuarantineTable("t", "manifest-unreadable", "truncated"); err != nil {
		t.Fatal(err)
	}
	if qs, _ = s.Quarantined(); len(qs) != 2 {
		t.Fatalf("repeat quarantine overwrote the first record: %+v", qs)
	}
	if err := s.QuarantineTable("t", "x", "y"); err == nil {
		t.Error("quarantining a missing table did not error")
	}
}

// TestDotNamesCannotCollideWithQuarantine: a user table named like the
// reserved quarantine directory is diverted through the hashed on-disk
// form, so it can neither read nor clobber quarantined data.
func TestDotNamesCannotCollideWithQuarantine(t *testing.T) {
	s := verifyStore(t)
	if err := s.WriteU16(".quarantine", "c", []uint16{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, "c.colv2")); err == nil {
		t.Fatal("dot-named table landed in the reserved quarantine directory")
	}
	got, err := readAll[uint16](s, ".quarantine", "c")
	if err != nil || len(got) != 3 {
		t.Fatalf("dot-named table unreadable: %v", err)
	}
	// And it still round-trips through listings via the raw-name sidecar.
	tables, err := s.Tables()
	if err != nil || len(tables) != 1 || tables[0] != ".quarantine" {
		t.Fatalf("Tables = %v (%v)", tables, err)
	}
}
