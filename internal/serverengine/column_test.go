package serverengine

import (
	"fmt"
	"slices"
	"testing"

	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// TestColumnFetchMatrix drives the fetch layer every handler reads
// columns through — ownerSum, at one owner, where the owner sum is the
// column itself — over both cell types, every tier (in memory, disk with
// the epoch's cache cold and warm), every window shape
// relative to the chunk grid, with and without a delta overlay. Every tier
// must return the same cells, and a merge must never write into a slice
// other queries share (the in-memory column, a cached chunk or owner sum).
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
	// A window of a reply permuted by pf gathers the stored cells
	// pf⁻¹[rg], scattered over every chunk.
	pf := perm.Random(prg.New(prg.SeedFromString("column-matrix")), cells)
	inv := pf.Inverse()

	// overlayOf builds an overlay from stored position → value and the
	// per-cell reference it must produce.
	overlayOf := func(patches map[uint64]T) (*deltaOverlay, []T) {
		patchedRef := slices.Clone(ref)
		dc := sharestore.DeltaCol{Name: colKey(0, col), Width: sharestore.Width[T]()}
		for p, v := range patches {
			patchedRef[p] = v
			dc.Pos = append(dc.Pos, p)
			dc.Vals = append(dc.Vals, uint64(v))
		}
		overlay := newDeltaOverlay()
		overlay.insert([]sharestore.DeltaCol{dc}, 1)
		return overlay, patchedRef
	}
	// The overlay rewrites the first and last cell, both edges of a chunk
	// boundary and one cell mid-chunk, so every non-empty window has
	// entries inside it and outside it.
	patches := map[uint64]T{0: 1, 15: 2, 16: 3, 25: 4, 40: 5, cells - 1: 6}
	overlay, patchedRef := overlayOf(patches)

	st, err := sharestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetChunkCells(chunk)
	if err := sharestore.Write(st, "t", colKey(0, col), ref); err != nil {
		t.Fatal(err)
	}
	// δ = 2^16 keeps every test value a cell of Z_δ.
	sv := &params.ServerView{M: 1, Delta: 1 << 16}
	eDisk := &Engine{view: sv, modDelta: modmath.NewMod32(sv.Delta), opts: Options{Store: st}}
	eRAM := &Engine{view: sv, modDelta: modmath.NewMod32(sv.Delta)}
	ram := &ownerCols{u16: colSet[uint16]{}, u64: colSet[uint64]{}}
	ramCol := slices.Clone(ref)
	setOf[T](ram)[col] = ramCol
	spec := protocol.TableSpec{Name: "t", B: cells}

	type tier struct {
		name string
		e    *Engine
		tv   *tableView
	}
	// tiers builds every tier's table snapshot, each with a fresh epoch
	// cache; the warm tier shares the cold tier's.
	tiers := func(delta *deltaOverlay) []tier {
		view := func(oc *ownerCols, cache *chunkCache) *tableView {
			return &tableView{spec: spec, owners: []*ownerCols{oc}, cache: cache, delta: delta}
		}
		cache := newChunkCache(nil)
		return []tier{
			{"ram", eRAM, view(ram, newChunkCache(nil))},
			{"disk-cold", eDisk, view(&ownerCols{}, cache)},
			{"disk-warm", eDisk, view(&ownerCols{}, cache)},
		}
	}
	// fetch is ownerSum, copied out and released when borrowed.
	fetch := func(t *testing.T, b tier, rg protocol.Range, idx []uint32, pf perm.Perm, stats *protocol.Stats) ([]T, bool) {
		t.Helper()
		v, borrowed, err := ownerSum[T](b.e, b.tv, col, rg, idx, pf, stats)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		out := slices.Clone(v)
		if borrowed {
			release(b.e, v)
		}
		return out, borrowed
	}
	// unshared asserts no merge leaked into a slice other queries read:
	// the RAM column and whatever the tier's cache holds — owner sums and,
	// on disk, owner chunks — read back overlay-free over the window rg.
	unshared := func(t *testing.T, b tier, rg protocol.Range) {
		t.Helper()
		if !slices.Equal(ramCol, ref) {
			t.Fatal("a merge wrote into the in-memory column")
		}
		clean := tier{b.name, b.e, &tableView{spec: spec, owners: b.tv.owners, cache: b.tv.cache}}
		var stats protocol.Stats
		if sum, _ := fetch(t, clean, rg, nil, nil, &stats); !slices.Equal(sum, ref[rg.Offset:rg.End()]) {
			t.Fatal("a merge wrote into a cached owner sum")
		}
		base := ownerBase[T]{e: b.e, t: clean.tv, col: col, stats: &stats}
		for p := rg.Offset; p < rg.End(); p++ {
			if v, err := base.at(p); err != nil || v != ref[p] {
				t.Fatalf("base cell %d = %d (%v): a merge wrote into a cached chunk", p, v, err)
			}
		}
	}

	for _, delta := range []*deltaOverlay{nil, overlay} {
		want, mode := ref, "no-overlay"
		if delta != nil {
			want, mode = patchedRef, "overlay"
		}
		for _, w := range windows {
			t.Run(fmt.Sprintf("%s/%s", mode, w.name), func(t *testing.T) {
				for _, b := range tiers(delta) {
					var stats protocol.Stats
					got, borrowed := fetch(t, b, w.rg, nil, nil, &stats)
					// Every tier hands out its epoch's sum unless an overlay
					// entry lands in the window, which it then merges in a
					// borrowed copy.
					lands := false
					for p := range patches {
						if delta != nil && p >= w.rg.Offset && p < w.rg.End() {
							lands = true
						}
					}
					if borrowed != lands {
						t.Fatalf("%s: borrowed = %v", b.name, borrowed)
					}
					if !slices.Equal(got, want[w.rg.Offset:w.rg.End()]) {
						t.Fatalf("%s: cells %v, want %v", b.name, got, want[w.rg.Offset:w.rg.End()])
					}
					if w.rg.Count == 0 {
						continue
					}
					// The cold fetch builds the sum, loading into the epoch's
					// cache the chunks an entry lands in, so its merge hits
					// each chunk it reads; the warm one finds the sum and the
					// chunks there.
					merged := make(map[uint64]bool)
					for p := range patches {
						if lands && p >= w.rg.Offset && p < w.rg.End() {
							merged[p/chunk] = true
						}
					}
					switch b.name {
					case "disk-cold":
						if stats.CacheHits != len(merged) || stats.FetchNS <= 0 {
							t.Errorf("cold fetch: hits=%d fetchNS=%d, want %d merge hits and a timed store read", stats.CacheHits, stats.FetchNS, len(merged))
						}
					case "disk-warm":
						if stats.CacheHits == 0 || stats.FetchNS != 0 {
							t.Errorf("warm fetch: hits=%d fetchNS=%d, want cache hits and no store read", stats.CacheHits, stats.FetchNS)
						}
					}
					unshared(t, b, w.rg)
				}
			})
		}
		t.Run(mode+"/gather", func(t *testing.T) {
			for _, b := range tiers(delta) {
				var stats protocol.Stats
				rg := protocol.Range{Offset: 10, Count: 50}
				got, _ := fetch(t, b, rg, inv[rg.Offset:rg.End()], pf, &stats)
				for i, p := range inv[rg.Offset:rg.End()] {
					if got[i] != want[p] {
						t.Fatalf("%s: reply cell %d (stored %d) = %d, want %d", b.name, rg.Offset+uint64(i), p, got[i], want[p])
					}
				}
				unshared(t, b, protocol.Range{Offset: 0, Count: cells})
			}
		})
	}

	// Windows of a reply permuted by pf gather the stored cells
	// pf⁻¹[rg]. Each overlay holds the window's first, middle and last
	// cell and the cells just outside it, so the patch places its entries
	// through pf; the last case holds more entries than its window has
	// cells, so the patch probes per cell instead. Either way the cells
	// must equal the per-cell reference.
	for _, pw := range []struct {
		name string
		rg   protocol.Range
		many bool
	}{
		{"first", protocol.Range{Offset: 0, Count: 20}, false},
		{"middle", protocol.Range{Offset: 25, Count: 20}, false},
		{"last-partial", protocol.Range{Offset: 64, Count: 6}, false},
		{"more-entries-than-cells", protocol.Range{Offset: 33, Count: 5}, true},
	} {
		t.Run("permuted/"+pw.name, func(t *testing.T) {
			patches := map[uint64]T{}
			if pw.many {
				for p := uint64(0); p < cells; p += 3 {
					patches[p] = T(100 + p)
				}
			}
			rg := pw.rg
			for i, q := range []uint64{rg.Offset, rg.Offset + rg.Count/2, rg.End() - 1, (rg.Offset + cells - 1) % cells, rg.End() % cells} {
				patches[uint64(inv[q])] = T(1 + i)
			}
			if many := len(patches) >= int(rg.Count); many != pw.many {
				t.Fatalf("%d entries for %d cells: the case no longer takes its branch", len(patches), rg.Count)
			}
			delta, want := overlayOf(patches)
			idx := inv[rg.Offset:rg.End()]
			for _, b := range tiers(delta) {
				var stats protocol.Stats
				got, _ := fetch(t, b, rg, idx, pf, &stats)
				for i, p := range idx {
					if got[i] != want[p] {
						t.Fatalf("%s: reply cell %d (stored %d) = %d, want %d", b.name, rg.Offset+uint64(i), p, got[i], want[p])
					}
				}
				unshared(t, b, protocol.Range{Offset: 0, Count: cells})
			}
		})
	}

	// A column the set does not hold is an error naming the table on
	// either width.
	ghost := &tableView{spec: spec, owners: []*ownerCols{ram}, cache: newChunkCache(nil)}
	if _, _, err := ownerSum[T](eRAM, ghost, "ghost", windows[1].rg, nil, nil, &protocol.Stats{}); err == nil ||
		err.Error() != `server 0: table "t" owner 0 missing ghost column` {
		t.Errorf("missing column error = %v", err)
	}
}
