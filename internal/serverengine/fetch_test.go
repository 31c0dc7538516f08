package serverengine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// TestCacheOffFetchAllocatesNoVectors is the fence on the disk fetch,
// whose sum builds read chunks straight from the store: serving a PSI, a
// count and a sum window from disk allocates the reply vectors and small
// change (closures, request state) — no per-owner window, no per-chunk
// file buffer, no decoded chunk. Before the fetch borrowed its buffers
// those came to about seven times the replies on this table.
func TestCacheOffFetchAllocatesNoVectors(t *testing.T) { fetchAllocFence(t, "none") }

// TestCacheOffPatchedFetchAllocatesNoVectors is the same fence with the
// updates landing after the warm-up, as in a read-mostly epoch: the
// measured rounds include the merge's first read of every owner chunk an
// entry lands in, which the epoch's cache then holds, and still allocate
// no window per query.
func TestCacheOffPatchedFetchAllocatesNoVectors(t *testing.T) { fetchAllocFence(t, "after") }

// TestPatchedWarmFetchAllocatesNoVectors is the same fence on the
// update-then-read shape: windows of the epoch's owner sum are shared and
// a pending overlay lands entries in every window, so every PSI and sum
// window is a corrected copy of a shared window and every count window a
// gather of the owner sum corrected through PF_s1. The copies are
// borrowed and the merge's chunks are the epoch cache's, so the fetch
// still allocates no window per owner; when each owner's window was a
// fresh clone they came to over twice the replies.
func TestPatchedWarmFetchAllocatesNoVectors(t *testing.T) { fetchAllocFence(t, "before") }

// fetchAllocFence serves rounds of one-chunk PSI, count and sum windows
// of a 4-owner disk table and requires the measured rounds to allocate
// under twice their reply bytes. With updates "before" or "after" the
// warm-up, every owner updates every 64th cell, which stays pending
// (compaction is off).
func fetchAllocFence(t *testing.T, updates string) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const (
		owners = 4
		b      = 1 << 16
		window = 1 << 14 // one chunk
		rounds = 20
	)
	sys, err := params.Generate(params.Config{NumOwners: owners, DomainSize: b, MaxAgg: 1000, Seed: prg.SeedFromString("fence")})
	if err != nil {
		t.Fatal(err)
	}
	view, err := sys.ForServer(0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sharestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetChunkCells(window)
	e := New(view, Options{Threads: 1, Store: st})
	ctx := context.Background()
	g := prg.New(prg.SeedFromString("fence-data"))
	for owner := 0; owner < owners; owner++ {
		chi, sums := make([]uint16, b), make([]uint64, b)
		for i := range chi {
			chi[i], sums[i] = uint16(g.Uint64n(sys.Delta)), g.Uint64n(field.P)
		}
		_, err := e.Handle(ctx, protocol.StoreRequest{
			Owner: owner, Spec: protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}},
			ChiAdd: chi, SumCols: map[string][]uint64{"v": sums},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	update := func() {
		for owner := 0; owner < owners; owner++ {
			var pos []uint64
			for p := uint64(owner); p < b; p += 64 {
				pos = append(pos, p)
			}
			chi, sums := make([]uint16, len(pos)), make([]uint64, len(pos))
			for i := range pos {
				chi[i], sums[i] = uint16(g.Uint64n(sys.Delta)), g.Uint64n(field.P)
			}
			if _, err := e.Handle(ctx, protocol.StoreDeltaRequest{
				Owner: owner, Table: "t", Pos: pos, Chi: chi, Sums: map[string][]uint64{"v": sums},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if updates == "before" {
		update()
	}
	z := make([]uint64, window)
	var replyBytes uint64
	round := func(i int) {
		rg := protocol.Range{Offset: uint64(i%(b/window)) * window, Count: window}
		for _, req := range []any{
			protocol.PSIRequest{Table: "t", Shard: rg},
			protocol.CountRequest{Table: "t", Shard: rg},
			protocol.AggRequest{Table: "t", Cols: []string{"v"}, Z: z, Shard: rg},
		} {
			if _, err := e.Handle(ctx, req); err != nil {
				t.Fatal(err)
			}
			replyBytes += 8 * window
		}
	}
	for i := 0; i < 4; i++ { // warm-up: inverse permutation, index memo, owner sums, cache, pools
		round(i)
	}
	if updates == "after" {
		update()
	}
	if got := e.DeltaBacklog("t"); (updates != "none") != (got > 0) {
		t.Fatalf("%d pending overlay entries", got)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools mid-measurement
	replyBytes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round(i)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*replyBytes {
		t.Errorf("%d window requests allocated %d bytes, want under twice their %d reply bytes", 3*rounds, got, replyBytes)
	} else {
		t.Logf("%d window requests allocated %d bytes for %d reply bytes", 3*rounds, got, replyBytes)
	}
}

// benchFetchCacheOff times one owner's overlay-free disk fetch of a
// 64Ki-cell reply window from a 4-chunk disk column, released after each
// fetch as a kernel would.
func benchFetchCacheOff[T sharestore.Cell](b *testing.B) {
	const cells, window = 1 << 18, 1 << 16
	e, tv := cacheOffBench[T](b, cells)
	var stats protocol.Stats
	b.SetBytes(int64(window * sharestore.Width[T]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := fetchWindow[T](e, tv, 0, "c", protocol.Range{Offset: uint64(i%4) * window, Count: window}, &stats)
		if err != nil || v[1] == v[0] {
			b.Fatal(err, v[:2])
		}
		release(e, v)
	}
}

// cacheOffBench writes one owner's cells-cell column "c" to a fresh store
// and returns a disk engine over it.
func cacheOffBench[T sharestore.Cell](b *testing.B, cells int) (*Engine, *tableView) {
	st, err := sharestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	col := make([]T, cells)
	for i := range col {
		col[i] = T(i * 7)
	}
	if err := sharestore.Write(st, "t", colKey(0, "c"), col); err != nil {
		b.Fatal(err)
	}
	e := &Engine{view: &params.ServerView{M: 1, Delta: 1 << 16}, modDelta: modmath.NewMod32(1 << 16), opts: Options{Store: st}}
	return e, &tableView{spec: protocol.TableSpec{Name: "t", B: uint64(cells)}, owners: []*ownerCols{{}}, cache: newChunkCache(nil)}
}

func BenchmarkFetchWindowCacheOff(b *testing.B) {
	b.Run("uint16", benchFetchCacheOff[uint16])
	b.Run("uint64", benchFetchCacheOff[uint64])
}

// BenchmarkFetchPermutedRoundCacheOff times the first permuted round of a
// table epoch on disk: the four 64Ki-cell windows of a
// reply permuted over a 2^18-cell, 4-chunk column, as a count query asks
// for them — the epoch's owner sum built by the first window, every
// window gathered from it.
func BenchmarkFetchPermutedRoundCacheOff(b *testing.B) {
	b.Run("uint16", benchPermutedRound[uint16])
	b.Run("uint64", benchPermutedRound[uint64])
}

func benchPermutedRound[T sharestore.Cell](b *testing.B) {
	const cells, window = 1 << 18, 1 << 16
	e, tv := cacheOffBench[T](b, cells)
	pf := perm.Random(prg.New(prg.SeedFromString("bench-gather")), cells)
	inv := pf.Inverse()
	var stats protocol.Stats
	b.SetBytes(int64(cells * sharestore.Width[T]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tv.cache = newChunkCache(nil) // a new epoch
		for off := uint64(0); off < cells; off += window {
			rg := protocol.Range{Offset: off, Count: window}
			v, _, err := ownerSum[T](e, tv, "c", rg, inv[off:rg.End()], pf, &stats)
			if err != nil || v[1] == v[0] {
				b.Fatal(err, v[:2])
			}
			release(e, v)
		}
	}
}

// BenchmarkFetchSummed times one 64Ki-cell window of a 2^18-cell,
// 10-owner disk column under a warm cache: "summed" is the fetch a kernel
// makes, ownerSum handing out a window of the epoch's owner sum;
// "per-owner" is the add it replaced, every owner's window read and
// summed per query.
func BenchmarkFetchSummed(b *testing.B) {
	b.Run("uint16", benchFetchSummed[uint16])
	b.Run("uint64", benchFetchSummed[uint64])
}

func benchFetchSummed[T sharestore.Cell](b *testing.B) {
	const cells, window, owners = 1 << 18, 1 << 16, 10
	st, err := sharestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	tv := &tableView{spec: protocol.TableSpec{Name: "t", B: cells}, cache: newChunkCache(nil)}
	col := make([]T, cells)
	for j := 0; j < owners; j++ {
		for i := range col {
			col[i] = T((i + j) * 7 % 113)
		}
		if err := sharestore.Write(st, "t", colKey(j, "c"), col); err != nil {
			b.Fatal(err)
		}
		tv.owners = append(tv.owners, &ownerCols{})
	}
	e := &Engine{view: &params.ServerView{M: owners, Delta: 113}, modDelta: modmath.NewMod32(113), opts: Options{Store: st}}
	var stats protocol.Stats
	rg := func(i int) protocol.Range { return protocol.Range{Offset: uint64(i%4) * window, Count: window} }
	for i := 0; i < 4; i++ { // warm: the owner sum
		if _, _, err := ownerSum[T](e, tv, "c", rg(i), nil, nil, &stats); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("summed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, borrowed, err := ownerSum[T](e, tv, "c", rg(i), nil, nil, &stats); err != nil || borrowed {
				b.Fatal(err, borrowed)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/cell")
	})
	b.Run("per-owner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := cellPool[T]().Get(window)
			if err := sumOwners(e, out, func(j int) ([]T, bool, error) {
				return fetchWindow[T](e, tv, j, "c", rg(i), &stats)
			}, &stats); err != nil {
				b.Fatal(err)
			}
			release(e, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/cell")
	})
}

// BenchmarkPatch times finding the delta-overlay entries that land in a
// fetch alone — landing, as hits runs it: one owner's 1,024 pending
// entries, spread over a 2^18-cell column, written into a 4Ki- or
// 64Ki-cell window — a contiguous window or a window of a PF_s-permuted
// reply gathered as pf⁻¹[rg], placing each entry through pf. Both walk the entries rather
// than probe every cell, so with the entries fixed they should cost about
// the same at either window size.
func BenchmarkPatch(b *testing.B) {
	const cells, entries = 1 << 18, 1024
	g := prg.New(prg.SeedFromString("bench-patch"))
	pf := perm.Random(g, cells)
	inv := pf.Inverse()
	dc := sharestore.DeltaCol{Name: colKey(0, "c")}
	for p := uint64(0); p < cells; p += cells / entries {
		dc.Pos = append(dc.Pos, p+g.Uint64n(cells/entries))
		dc.Vals = append(dc.Vals, g.Uint64n(1<<16))
	}
	for _, width := range []int{2, 8} {
		for _, window := range []uint64{1 << 12, 1 << 16} {
			for _, kind := range []string{"window", "gather"} {
				b.Run(fmt.Sprintf("%s/uint%d/%dKi", kind, 8*width, window>>10), func(b *testing.B) {
					dc.Width = width
					d := newDeltaOverlay()
					d.insert([]sharestore.DeltaCol{dc}, 1)
					rg := protocol.Range{Offset: cells / 2, Count: window}
					if width == 2 {
						benchPatch[uint16](b, d, rg, pf, inv, kind == "gather")
					} else {
						benchPatch[uint64](b, d, rg, pf, inv, kind == "gather")
					}
				})
			}
		}
	}
}

func benchPatch[T sharestore.Cell](b *testing.B, d *deltaOverlay, rg protocol.Range, pf, inv perm.Perm, gather bool) {
	v := make([]T, rg.Count)
	idx := inv[rg.Offset:rg.End()]
	if !gather {
		idx, pf = nil, nil
	}
	co := d.cols[colKey(0, "c")]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.landing(rg, idx, pf, func(i int, _, val uint64) { v[i] = T(val) })
	}
}
