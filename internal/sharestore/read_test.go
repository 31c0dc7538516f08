package sharestore

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// TestIndexReadOnce: a column's index file is read once per Store — the
// memo serves every later Stat and read even when the file has turned to
// junk — and every operation that replaces or removes the file drops the
// memo, so the next read sees the disk again.
func TestIndexReadOnce(t *testing.T) {
	s := chunkedStore(t, 4)
	six, three := []uint16{1, 2, 3, 4, 5, 6}, []uint16{7, 8, 9}
	cells := func(col string) uint64 { // Stat's view; 0 with ErrNotFound
		t.Helper()
		info, err := s.Stat("t", col)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		return info.Cells
	}
	write := func(col string, data []uint16) {
		t.Helper()
		if err := Write(s, "t", col, data); err != nil {
			t.Fatal(err)
		}
		if got := cells(col); got != uint64(len(data)) { // memoised from here on
			t.Fatalf("%s holds %d cells after writing %d", col, got, len(data))
		}
	}

	write("c", six)
	index := filepath.Join(s.colDir("t", "c"), "index")
	if err := os.WriteFile(index, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadRange[uint16](s, "t", "c", 0, 6); err != nil || !slices.Equal(got, six) || cells("c") != 6 {
		t.Fatalf("the memo did not serve a read past the junk index: %v %v", got, err)
	}
	if fresh, _ := Open(s.Dir()); fresh == nil {
		t.Fatal("reopen failed")
	} else if _, err := fresh.Stat("t", "c"); err == nil {
		t.Fatal("a store without the memo accepted the junk index")
	}
	if err := s.VerifyColumn("t", "c", 2, 6); err == nil { // the boot check reads the disk
		t.Fatal("VerifyColumn trusted the memo over the junk index")
	}

	for _, tc := range []struct {
		name   string
		change func() error
		want   uint64 // cells of t/c afterwards
	}{
		{"Write", func() error { return Write(s, "t", "c", three) }, 3},
		{"Create", func() error { return Create[uint16](s, "t", "c", 9) }, 9},
		{"DeleteColumn", func() error { return s.DeleteColumn("t", "c") }, 0},
		{"QuarantineTable", func() error { return s.QuarantineTable("t", "test", "") }, 0},
	} {
		write("c", six)
		if err := tc.change(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cells("c"); got != tc.want {
			t.Errorf("after %s the store reports %d cells, want %d", tc.name, got, tc.want)
		}
	}
}

// TestReadBounds: every typed read checks the column's width and that
// what it addresses lies inside the column or chunk; a violation is an
// error, never a panic on the chunk bytes.
func TestReadBounds(t *testing.T) {
	s := chunkedStore(t, 4)
	if err := Write(s, "t", "c", []uint16{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	out := make([]uint16, 8)
	for name, read := range map[string]func() error{
		"ReadRange past the end":     func() error { _, err := ReadRange[uint16](s, "t", "c", 4, 3); return err },
		"ReadRange offset past end":  func() error { _, err := ReadRange[uint16](s, "t", "c", 7, 0); return err },
		"ReadRange absurd count":     func() error { _, err := ReadRange[uint16](s, "t", "c", 1, 1<<62); return err },
		"ReadRangeInto long dst":     func() error { return ReadRangeInto(s, "t", "c", 0, out[:7]) },
		"ReadRangeInto dst past end": func() error { return ReadRangeInto(s, "t", "c", 5, out[:2]) },
		"ReadChunk past the end":     func() error { _, err := ReadChunk[uint16](s, "t", "c", 2); return err },
		"ReadRange width":            func() error { _, err := ReadRange[uint64](s, "t", "c", 0, 1); return err },
		"ReadRangeInto width":        func() error { return ReadRangeInto(s, "t", "c", 0, make([]uint64, 1)) },
		"ReadChunk width":            func() error { _, err := ReadChunk[uint64](s, "t", "c", 0); return err },
		"missing column":             func() error { return ReadRangeInto(s, "t", "ghost", 0, out[:1]) },
	} {
		if err := read(); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "missing column" && !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: %v, want ErrNotFound", name, err)
		}
	}
	// In bounds, a read across the chunk boundary is served.
	if err := ReadRangeInto(s, "t", "c", 2, out[:4]); err != nil || !slices.Equal(out[:4], []uint16{3, 4, 5, 6}) {
		t.Errorf("ReadRangeInto = %v %v", out[:4], err)
	}
}

// TestIndexMemoConcurrent: readers of one column and a writer re-creating
// another at alternating sizes share the memo. After each Create returns,
// the writer's own Stat must see the size it just asked for — a reader
// racing the replacement can never leave a stale index memoised.
func TestIndexMemoConcurrent(t *testing.T) {
	s := chunkedStore(t, 4)
	steady := []uint16{1, 2, 3, 4, 5, 6}
	if err := Write(s, "t", "steady", steady); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }() // before TempDir is removed, also on Fatal
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]uint16, 6)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ReadRangeInto(s, "t", "steady", 0, out); err != nil || !slices.Equal(out, steady) {
					t.Errorf("steady column read %v, %v", out, err)
					return
				}
				s.Stat("t", "moving") // races the replacement: old, new or not found, all fine
			}
		}()
	}
	for i := 0; i < 300; i++ {
		n := uint64(3 + i%5)
		if err := Create[uint16](s, "t", "moving", n); err != nil {
			t.Fatal(err)
		}
		if info, err := s.Stat("t", "moving"); err != nil || info.Cells != n {
			t.Fatalf("round %d: created %d cells, Stat says %d (%v)", i, n, info.Cells, err)
		}
	}
}
