package sharestore

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzChunkFile hardens the parser every stored byte is read through:
// arbitrary bytes as chunk file c0.ck under a valid index, at both cell
// widths, must make ReadRange, ReadRangeInto, ReadChunk, GatherChunk and
// VerifyColumn return an error or exactly the cells the bytes encode —
// never panic, never size an allocation from the file's length field —
// and must leave the neighbouring chunk readable.
func FuzzChunkFile(f *testing.F) {
	const chunkCells, cells = 4, 6 // c0.ck holds 4 cells, c1.ck the last 2
	f.Add(encodeChunk(2, cellBytes([]uint16{1, 2, 3, 65535})))
	f.Add(encodeChunk(8, cellBytes([]uint64{1, 2, 3, 1<<64 - 1})))
	f.Add(encodeChunk(8, cellBytes([]uint64{1, 2, 3}))) // one cell short
	for _, whole := range [][]byte{encodeChunk(2, cellBytes([]uint16{1, 2, 3, 4})), encodeChunk(8, cellBytes([]uint64{1, 2, 3, 4}))} {
		f.Add(append(slices.Clone(whole), 0)) // one byte long
		f.Add(whole[:len(whole)-1])           // one byte short
	}
	f.Add(encodeChunk(2, cellBytes([]uint16{1, 2, 3, 4}))[:chunkHeaderLen+3])
	f.Add(append([]byte("PRSC\x02\x08\xff\xff\xff\xff\xff\xff\xff\x7f"), make([]byte, 36)...)) // absurd cell count
	f.Add([]byte("PRSC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzChunkFile[uint16](t, data, chunkCells, cells)
		fuzzChunkFile[uint64](t, data, chunkCells, cells)
	})
}

func fuzzChunkFile[T Cell](t *testing.T, data []byte, chunkCells, cells uint64) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Skip()
	}
	st.SetChunkCells(chunkCells)
	good := make([]T, cells)
	for i := range good {
		good[i] = T(100 + i)
	}
	if err := Write(st, "x", "y", good); err != nil {
		t.Skip()
	}
	if err := os.WriteFile(chunkPath(st.colDir("x", "y"), 0), data, 0o644); err != nil {
		t.Skip()
	}
	// What the bytes encode, if they are a well-formed chunk at all.
	w := Width[T]()
	var want []T
	if len(data) == chunkHeaderLen+int(chunkCells)*w {
		want = make([]T, chunkCells)
		decode(want, data[chunkHeaderLen:])
	}
	chunk, chunkErr := ReadChunk[T](st, "x", "y", 0)
	if chunkErr == nil && !slices.Equal(chunk, want) {
		t.Fatalf("ReadChunk served %v from bytes encoding %v", chunk, want)
	}
	if win, err := ReadRange[T](st, "x", "y", 1, 4); err == nil {
		if chunkErr != nil || !slices.Equal(win, append(append([]T(nil), want[1:]...), good[chunkCells])) {
			t.Fatalf("ReadRange served %v (ReadChunk err %v)", win, chunkErr)
		}
	} else if chunkErr == nil {
		t.Fatalf("ReadRange rejects a chunk ReadChunk serves: %v", err)
	}
	into := make([]T, 4)
	if err := ReadRangeInto(st, "x", "y", 1, into); (err == nil) != (chunkErr == nil) ||
		err == nil && !slices.Equal(into, append(slices.Clone(want[1:]), good[chunkCells])) {
		t.Fatalf("ReadRangeInto served %v, %v (ReadChunk err %v)", into, err, chunkErr)
	}
	// Gather cells 3 and 0 of the fuzzed chunk; cell 5 lives next door.
	idx, out := []uint32{3, 0, 5}, make([]T, 3)
	if err := GatherChunk(st, "x", "y", 0, idx, []int32{1, 0}, out); (err == nil) != (chunkErr == nil) ||
		err == nil && (out[0] != want[3] || out[1] != want[0]) {
		t.Fatalf("GatherChunk served %v, %v (ReadChunk err %v)", out, err, chunkErr)
	}
	if err := GatherChunk(st, "x", "y", 0, idx, []int32{2}, out); err == nil {
		t.Fatal("GatherChunk served a cell outside its chunk")
	}
	if err := GatherChunk(st, "x", "y", 1, idx, []int32{2}, out); err != nil || out[2] != good[5] {
		t.Fatalf("neighbouring chunk disturbed: gathered %v, %v", out[2], err)
	}
	if len(data) == chunkHeaderLen+int(chunkCells)*w+1 || len(data) == chunkHeaderLen+int(chunkCells)*w-1 {
		if chunkErr == nil {
			t.Fatalf("a chunk file one byte off its length was served: %v", chunk)
		}
	}
	if err := st.VerifyColumn("x", "y", w, cells); err == nil && chunkErr != nil {
		t.Fatalf("VerifyColumn passes a chunk ReadChunk rejects: %v", chunkErr)
	}
	if tail, err := ReadRange[T](st, "x", "y", chunkCells, cells-chunkCells); err != nil || !slices.Equal(tail, good[chunkCells:]) {
		t.Fatalf("neighbouring chunk disturbed: %v %v", tail, err)
	}
}

// FuzzChunkIndex hardens the chunk-index reader: arbitrary index bytes
// must never panic the parser or the reads routed through it, and a
// parsed index must never drive an absurd allocation.
func FuzzChunkIndex(f *testing.F) {
	f.Add(encodeIndex(chunkIndex{width: 2, chunkCells: 16, cells: 100}))
	f.Add(encodeIndex(chunkIndex{width: 8, chunkCells: 1, cells: 0}))
	f.Add([]byte("PRSI"))
	f.Add([]byte{})
	f.Add(append([]byte("PRSI\x02\x02"), make([]byte, 20)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ci, err := parseIndex(data)
		if err == nil {
			if ci.width != 2 && ci.width != 8 {
				t.Fatalf("parser accepted width %d", ci.width)
			}
			if ci.chunkCells == 0 {
				t.Fatal("parser accepted zero chunk size")
			}
		}
		// Reads through a store whose index file holds the fuzzed bytes
		// must not panic either.
		td := t.TempDir()
		st, err := Open(td)
		if err != nil {
			t.Skip()
		}
		dir := filepath.Join(td, "x", "y.colv2")
		os.MkdirAll(dir, 0o755)
		if err := os.WriteFile(filepath.Join(dir, "index"), data, 0o644); err != nil {
			t.Skip()
		}
		st.Stat("x", "y")
		readAll[uint16](st, "x", "y")
		st.ReadU16Range("x", "y", 0, 4)
		ReadChunk[uint64](st, "x", "y", 0)
		WriteRange(st, "x", "y", 0, []uint16{1})
	})
}
