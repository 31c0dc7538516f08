package serverengine

import (
	"fmt"
	"slices"
	"testing"

	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// TestColumnFetchMatrix drives the one fetch layer every handler reads
// columns through — fetchWindow and fetchGather — over both cell types,
// every backend, every window shape relative to the chunk grid, with and
// without a delta overlay. Every backend must return the same cells, and
// a patch must never write into a slice other queries share (the
// in-memory column, a cached chunk).
func TestColumnFetchMatrix(t *testing.T) {
	t.Run("uint16", columnFetchMatrix[uint16])
	t.Run("uint64", columnFetchMatrix[uint64])
}

func columnFetchMatrix[T sharestore.Cell](t *testing.T) {
	const (
		cells = 70 // chunks of 16: four whole ones and a 6-cell tail
		chunk = 16
		col   = "c"
	)
	ref := make([]T, cells)
	for i := range ref {
		ref[i] = T(1000 + 7*i)
	}
	windows := []struct {
		name string
		rg   protocol.Range
	}{
		{"empty", protocol.Range{Offset: 20, Count: 0}},
		{"inside-one-chunk", protocol.Range{Offset: 18, Count: 9}},
		{"exactly-one-chunk", protocol.Range{Offset: 32, Count: chunk}},
		{"straddling-three-chunks", protocol.Range{Offset: 14, Count: 20}},
		{"whole-column", protocol.Range{Offset: 0, Count: cells}},
		{"last-partial-chunk", protocol.Range{Offset: 64, Count: 6}},
	}
	frontier := []uint32{cells - 1, 0, 17, 16, 33, 0} // first and last cell, unsorted, one repeat

	// The overlay rewrites the first and last cell, both edges of a chunk
	// boundary and one cell mid-chunk, so every non-empty window has
	// entries inside it and outside it.
	patches := map[uint64]T{0: 1, 15: 2, 16: 3, 25: 4, 40: 5, cells - 1: 6}
	patchedRef := slices.Clone(ref)
	dc := sharestore.DeltaCol{Name: colKey(0, col), Width: sharestore.Width[T]()}
	for p, v := range patches {
		patchedRef[p] = v
		dc.Pos = append(dc.Pos, p)
		dc.Vals = append(dc.Vals, uint64(v))
	}
	overlay := newDeltaOverlay()
	overlay.insert([]sharestore.DeltaCol{dc}, 1)

	st, err := sharestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetChunkCells(chunk)
	if err := sharestore.Write(st, "t", colKey(0, col), ref); err != nil {
		t.Fatal(err)
	}
	e := &Engine{view: &params.ServerView{M: 1}, opts: Options{Store: st}}
	ram := &ownerCols{u16: colSet[uint16]{}, u64: colSet[uint64]{}}
	ramCol := slices.Clone(ref)
	setOf[T](ram)[col] = ramCol
	disk := &ownerCols{onDisk: true}
	spec := protocol.TableSpec{Name: "t", B: cells}

	// view builds one backend's table snapshot; warm backends share a
	// cache across the cold and the warm fetch.
	view := func(oc *ownerCols, cache *chunkCache, delta *deltaOverlay) *tableView {
		return &tableView{spec: spec, owners: []*ownerCols{oc}, cache: cache, delta: delta}
	}
	// unshared asserts no patch leaked into a slice other queries read:
	// the RAM column and whatever the cache holds.
	unshared := func(t *testing.T, cache *chunkCache, rg protocol.Range) {
		t.Helper()
		if !slices.Equal(ramCol, ref) {
			t.Fatal("a patch wrote into the in-memory column")
		}
		if cache == nil {
			return
		}
		var stats protocol.Stats
		raw, _, err := fetchWindowRaw[T](e, view(disk, cache, nil), 0, col, rg, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(raw, ref[rg.Offset:rg.End()]) {
			t.Fatal("a patch wrote into a cached chunk")
		}
	}

	for _, delta := range []*deltaOverlay{nil, overlay} {
		want, mode := ref, "no-overlay"
		if delta != nil {
			want, mode = patchedRef, "overlay"
		}
		for _, w := range windows {
			t.Run(fmt.Sprintf("%s/%s", mode, w.name), func(t *testing.T) {
				cache := newChunkCache(1<<20, nil)
				backends := []struct {
					name string
					tv   *tableView
				}{
					{"ram", view(ram, nil, delta)},
					{"disk-nocache", view(disk, nil, delta)},
					{"disk-cache-cold", view(disk, cache, delta)},
					{"disk-cache-warm", view(disk, cache, delta)},
				}
				for _, b := range backends {
					var stats protocol.Stats
					got, borrowed, err := fetchWindow[T](e, b.tv, 0, col, w.rg, &stats)
					if err != nil {
						t.Fatalf("%s: %v", b.name, err)
					}
					if b.name == "ram" && borrowed || b.name == "disk-nocache" && !borrowed {
						t.Fatalf("%s: borrowed = %v", b.name, borrowed)
					}
					if !slices.Equal(got, want[w.rg.Offset:w.rg.End()]) {
						t.Fatalf("%s: cells %v, want %v", b.name, got, want[w.rg.Offset:w.rg.End()])
					}
					if w.rg.Count == 0 {
						continue
					}
					switch b.name {
					case "disk-cache-cold":
						if stats.CacheHits != 0 || stats.FetchNS <= 0 {
							t.Errorf("cold fetch: hits=%d fetchNS=%d, want a timed store read", stats.CacheHits, stats.FetchNS)
						}
					case "disk-cache-warm":
						if stats.CacheHits == 0 || stats.FetchNS != 0 {
							t.Errorf("warm fetch: hits=%d fetchNS=%d, want cache hits and no store read", stats.CacheHits, stats.FetchNS)
						}
					}
					unshared(t, b.tv.cache, w.rg)
				}
			})
		}
		t.Run(mode+"/gather", func(t *testing.T) {
			cache := newChunkCache(1<<20, nil)
			for _, tv := range []*tableView{
				view(ram, nil, delta), view(disk, nil, delta), view(disk, cache, delta), view(disk, cache, delta),
			} {
				var stats protocol.Stats
				got, _, err := fetchGather[T](e, tv, 0, col, frontier, nil, &stats)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range frontier {
					if got[i] != want[c] {
						t.Fatalf("frontier cell %d = %d, want %d", c, got[i], want[c])
					}
				}
				unshared(t, tv.cache, protocol.Range{Offset: 0, Count: cells})
			}
		})
	}

	// A column the set does not hold is an error naming the table on
	// either width.
	if _, _, err := fetchWindow[T](e, view(ram, nil, nil), 0, "ghost", windows[1].rg, &protocol.Stats{}); err == nil ||
		err.Error() != `server 0: table "t" owner 0 missing ghost column` {
		t.Errorf("missing column error = %v", err)
	}
}
