package serverengine

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"prism/internal/field"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// TestCacheOffFetchAllocatesNoVectors is the fence on the cache-off
// fetch: serving a PSI, a count and a sum window from disk allocates the
// reply vectors and small change (a gather plan, closures) — no
// per-owner window, no per-chunk file buffer, no decoded chunk. Before
// the fetch borrowed its buffers those came to about seven times the
// replies on this table.
func TestCacheOffFetchAllocatesNoVectors(t *testing.T) {
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
	for i := 0; i < 4; i++ { // warm-up: inverse permutation, index memo, pools
		round(i)
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

// benchFetchCacheOff times one owner's cache-off fetch of a 64Ki-cell
// reply window from a 4-chunk disk column: contiguous (fetchWindow) or
// scattered over every chunk the way a permuted count window is
// (fetchGather), released after each fetch as a kernel would.
func benchFetchCacheOff[T sharestore.Cell](b *testing.B, gather bool) {
	const cells, window = 1 << 18, 1 << 16
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
	e := &Engine{view: &params.ServerView{M: 1}, opts: Options{Store: st}}
	tv := &tableView{spec: protocol.TableSpec{Name: "t", B: cells}, owners: []*ownerCols{{onDisk: true}}}
	idx := perm.Random(prg.New(prg.SeedFromString("bench-gather")), cells)[:window]
	plan := buildGatherPlan(idx, sharestore.DefaultChunkCells, cells)
	var stats protocol.Stats
	b.SetBytes(int64(window * sharestore.Width[T]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var v []T
		if gather {
			v, _, err = fetchGather[T](e, tv, 0, "c", idx, &plan, &stats)
		} else {
			v, _, err = fetchWindow[T](e, tv, 0, "c", protocol.Range{Offset: uint64(i%4) * window, Count: window}, &stats)
		}
		if err != nil || v[1] == v[0] {
			b.Fatal(err, v[:2])
		}
		release(e, v)
	}
}

func BenchmarkFetchWindowCacheOff(b *testing.B) {
	b.Run("uint16", func(b *testing.B) { benchFetchCacheOff[uint16](b, false) })
	b.Run("uint64", func(b *testing.B) { benchFetchCacheOff[uint64](b, false) })
}

func BenchmarkFetchGatherCacheOff(b *testing.B) {
	b.Run("uint16", func(b *testing.B) { benchFetchCacheOff[uint16](b, true) })
	b.Run("uint64", func(b *testing.B) { benchFetchCacheOff[uint64](b, true) })
}
