package serverengine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/sharestore"
)

// diskEngines builds three disk-backed engines with small chunks so
// multi-chunk behaviour is exercised at test scale.
func diskEngines(t *testing.T, b uint64, chunkCells uint64, opt func(o *Options)) ([]*Engine, []*sharestore.Store) {
	t.Helper()
	stores := make([]*sharestore.Store, 3)
	engines := newEngines(t, b, func(phi int) Options {
		st, err := sharestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.SetChunkCells(chunkCells)
		stores[phi] = st
		o := Options{Threads: 2, Store: st}
		if opt != nil {
			opt(&o)
		}
		return o
	})
	return engines, stores
}

// storeSharded uploads the same 2-owner table as storeFull but window by
// window (sharded wire mode), returning the plain per-cell sums.
func storeSharded(t *testing.T, engines []*Engine, b, shard uint64, verify bool) [][]uint64 {
	t.Helper()
	g := prg.New(prg.SeedFromString("store-full")) // same data as storeFull
	m := 2
	spec := protocol.TableSpec{
		Name: "t", B: b, AggCols: []string{"v"},
		HasVerify: verify, HasCount: true, Plain: true,
	}
	plainSums := make([][]uint64, m)
	for owner := 0; owner < m; owner++ {
		chi := make([]uint16, b)
		sums := make([]uint64, b)
		counts := make([]uint64, b)
		for i := range chi {
			chi[i] = uint16(g.Uint64n(2))
			if chi[i] == 1 {
				sums[i] = g.Uint64n(100)
				counts[i] = 1 + g.Uint64n(3)
			}
		}
		plainSums[owner] = sums
		chiShares := share.AdditiveSplitVector(g, chi, 113, 2)
		barShares := share.AdditiveSplitVector(g, complement(chi), 113, 2)
		sumShares := share.ShamirSplitVector(g, sums, 1, 3)
		cntShares := share.ShamirSplitVector(g, counts, 1, 3)
		uploadID := fmt.Sprintf("test-epoch/%d", owner+1)
		for off := uint64(0); off < b; off += shard {
			n := shard
			if b-off < n {
				n = b - off
			}
			lo, hi := off, off+n
			for phi, e := range engines {
				req := protocol.StoreRequest{
					Owner: owner, Spec: spec,
					Shard:    protocol.Range{Offset: off, Count: n},
					UploadID: uploadID,
					SumCols:  map[string][]uint64{"v": sumShares[phi][lo:hi]},
					CountCol: cntShares[phi][lo:hi],
				}
				if verify {
					req.VSumCols = map[string][]uint64{"v": sumShares[phi][lo:hi]}
					req.VCountCol = cntShares[phi][lo:hi]
				}
				if phi < 2 {
					req.ChiAdd = chiShares[phi][lo:hi]
					if verify {
						req.ChiBarAdd = barShares[phi][lo:hi]
					}
				}
				if _, err := e.Handle(context.Background(), req); err != nil {
					t.Fatalf("owner %d shard [%d,%d) server %d: %v", owner, lo, hi, phi, err)
				}
			}
		}
	}
	return plainSums
}

// TestStreamingShardedUploadMatchesMonolithic: a disk-backed sharded
// upload streams windows straight to chunked columns — no full-length
// RAM assembly — and yields byte-identical query replies to the same
// data stored monolithically in RAM.
func TestStreamingShardedUploadMatchesMonolithic(t *testing.T) {
	const b = 96
	ram := newEngines(t, b, nil)
	storeFull(t, ram, b, true)

	engines, stores := diskEngines(t, b, 16, nil)
	storeSharded(t, engines, b, 10, true)

	// No RAM assembly: the streamed upload must never have held a
	// full-length column set in memory (queries then hold owner sums).
	for phi, e := range engines {
		if peak := e.PeakHeldBytes(); peak != 0 {
			t.Errorf("server %d: streamed upload held %d bytes in RAM", phi, peak)
		}
		if e.PendingUploads() != 0 {
			t.Errorf("server %d: pending uploads remain", phi)
		}
	}

	ctx := context.Background()
	for _, req := range []any{
		protocol.PSIRequest{Table: "t", QueryID: "q"},
		protocol.PSIRequest{Table: "t", QueryID: "q", Shard: protocol.Range{Offset: 30, Count: 17}},
		protocol.PSIRequest{Table: "t", QueryID: "q", Shard: protocol.Range{Offset: 8, Count: 64}, Verify: true},
		protocol.PSURequest{Table: "t", QueryID: "q"},
		protocol.PSURequest{Table: "t", QueryID: "q", Shard: protocol.Range{Offset: 16, Count: 48}},
	} {
		want, err := ram[0].Handle(ctx, req)
		if err != nil {
			t.Fatalf("ram %T: %v", req, err)
		}
		got, err := engines[0].Handle(ctx, req)
		if err != nil {
			t.Fatalf("disk %T: %v", req, err)
		}
		stripStats := func(v any) any {
			switch r := v.(type) {
			case protocol.PSIReply:
				r.Stats = protocol.Stats{}
				return r
			case protocol.PSUReply:
				r.Stats = protocol.Stats{}
				return r
			}
			return v
		}
		if !reflect.DeepEqual(stripStats(want), stripStats(got)) {
			t.Fatalf("%T diverged between RAM-monolithic and disk-streamed", req)
		}
	}

	// Live columns are chunked; pending names are gone; the manifest
	// records both owners.
	st := stores[0]
	info, err := st.Stat("t", "o0.chi")
	if err != nil || info.Cells != b || info.ChunkCells != 16 {
		t.Fatalf("o0.chi info = %+v, err %v", info, err)
	}
	if st.HasColumn("t", "pend0.chi") {
		t.Error("pending column survived completion")
	}
	var man TableManifest
	if err := st.ReadManifest("t", &man); err != nil {
		t.Fatal(err)
	}
	if man.Spec.B != b || len(man.Owners) != 2 || man.Owners[0] != 0 || man.Owners[1] != 1 {
		t.Fatalf("manifest = %+v", man)
	}
}

// TestPendingUploadTTLSweep: a stale sharded-upload assembly (owner
// crashed mid-upload) is reclaimed after the TTL — RAM buffers and
// pending disk columns both — and a fresh retry then succeeds.
func TestPendingUploadTTLSweep(t *testing.T) {
	const b = 64
	for _, disk := range []bool{false, true} {
		name := map[bool]string{false: "ram", true: "disk"}[disk]
		t.Run(name, func(t *testing.T) {
			var engines []*Engine
			var stores []*sharestore.Store
			if disk {
				engines, stores = diskEngines(t, b, 16, func(o *Options) { o.PendingTTL = time.Hour })
			} else {
				engines = newEngines(t, b, func(phi int) Options {
					return Options{Threads: 2, PendingTTL: time.Hour}
				})
			}
			e := engines[0]
			spec := protocol.TableSpec{Name: "t", B: b, Plain: true}
			half := make([]uint16, b/2)

			// First shard of an attempt that never completes.
			_, err := e.Handle(context.Background(), protocol.StoreRequest{
				Owner: 0, Spec: spec, UploadID: "crashed/1",
				Shard: protocol.Range{Offset: 0, Count: b / 2}, ChiAdd: half,
			})
			if err != nil {
				t.Fatal(err)
			}
			if e.PendingUploads() != 1 {
				t.Fatalf("pending = %d, want 1", e.PendingUploads())
			}
			if !disk && e.HeldBytes() == 0 {
				t.Error("ram assembly not accounted")
			}

			// Not yet stale: nothing swept.
			if n := e.sweepPending(time.Now()); n != 0 {
				t.Fatalf("fresh assembly swept (%d)", n)
			}
			// Past the TTL: reclaimed.
			if n := e.sweepPending(time.Now().Add(2 * time.Hour)); n != 1 {
				t.Fatalf("swept %d assemblies, want 1", n)
			}
			if e.PendingUploads() != 0 {
				t.Error("stale assembly survives sweep")
			}
			if e.HeldBytes() != 0 {
				t.Errorf("held bytes = %d after sweep, want 0", e.HeldBytes())
			}
			if disk && stores[0].HasColumn("t", "o0.chi") {
				t.Error("the swept upload's disk column survives sweep")
			}

			// A fresh retry (new attempt id) completes cleanly.
			for _, rg := range []protocol.Range{{Offset: 0, Count: b / 2}, {Offset: b / 2, Count: b / 2}} {
				_, err := e.Handle(context.Background(), protocol.StoreRequest{
					Owner: 0, Spec: spec, UploadID: "crashed/2",
					Shard: rg, ChiAdd: make([]uint16, rg.Count),
				})
				if err != nil {
					t.Fatalf("retry shard [%d,%d): %v", rg.Offset, rg.End(), err)
				}
			}
			// Second owner completes monolithically; the table then serves.
			if _, err := e.Handle(context.Background(), protocol.StoreRequest{
				Owner: 1, Spec: spec, ChiAdd: make([]uint16, b),
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t", QueryID: "q"}); err != nil {
				t.Fatalf("PSI after retry: %v", err)
			}
		})
	}
}

// TestPendingUploadSweepIdleNotAge: the TTL sweep measures idle time
// since the last window landed, not the age of the assembly. A
// slow-but-live writer whose upload takes longer than the TTL overall,
// but whose inter-window gaps stay under it, must survive the sweep and
// complete.
func TestPendingUploadSweepIdleNotAge(t *testing.T) {
	const b = 96
	const ttl = 500 * time.Millisecond
	engines := newEngines(t, b, func(phi int) Options {
		return Options{Threads: 2, PendingTTL: ttl}
	})
	e := engines[0]
	spec := protocol.TableSpec{Name: "t", B: b, Plain: true}
	windows := []protocol.Range{{Offset: 0, Count: 32}, {Offset: 32, Count: 32}, {Offset: 64, Count: 32}}
	for i, rg := range windows[:2] {
		if i > 0 {
			time.Sleep(350 * time.Millisecond) // gap < ttl, cumulative age > ttl
		}
		if _, err := e.Handle(context.Background(), protocol.StoreRequest{
			Owner: 0, Spec: spec, UploadID: "slow/1",
			Shard: rg, ChiAdd: make([]uint16, rg.Count),
		}); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	time.Sleep(350 * time.Millisecond)
	// The assembly is ~700ms old — past the TTL — but only ~350ms idle.
	if n := e.sweepPending(time.Now()); n != 0 {
		t.Fatalf("live slow upload swept (%d assemblies)", n)
	}
	if e.PendingUploads() != 1 {
		t.Fatalf("pending = %d, want 1", e.PendingUploads())
	}
	// The writer finishes; the assembly retires cleanly.
	if _, err := e.Handle(context.Background(), protocol.StoreRequest{
		Owner: 0, Spec: spec, UploadID: "slow/1",
		Shard: windows[2], ChiAdd: make([]uint16, windows[2].Count),
	}); err != nil {
		t.Fatal(err)
	}
	if e.PendingUploads() != 0 {
		t.Error("pending assembly survives completion")
	}
}

// TestHeldBytesLifecycle: the gauge covers in-memory tables across
// store and re-store, and on disk the epoch's cache until the
// compaction swap ends the epoch.
func TestHeldBytesLifecycle(t *testing.T) {
	const b = 64
	engines := newEngines(t, b, nil)
	storeFull(t, engines, b, false)
	e := engines[0]
	// server 0 holds per owner: chi (2b) + sum (8b) + cnt (8b).
	want := int64(2) * (2*b + 8*b + 8*b)
	if got := e.HeldBytes(); got != want {
		t.Fatalf("held = %d, want %d", got, want)
	}
	if e.PeakHeldBytes() < want {
		t.Fatalf("peak = %d < held %d", e.PeakHeldBytes(), want)
	}
	// Re-store (same shape) must not double-count.
	storeFull(t, engines, b, false)
	if got := e.HeldBytes(); got != want {
		t.Fatalf("held after re-store = %d, want %d", got, want)
	}

	// On disk the columns are not held, the epoch's cache is: the χ owner
	// sum a PSI builds, then with one pending update the chunk of each
	// owner its merge reads, until the compaction swap ends the epoch.
	const chunk = 16
	engines, _ = diskEngines(t, b, chunk, nil)
	storeFull(t, engines, b, false)
	e = engines[0]
	psi := func() {
		t.Helper()
		if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t", QueryID: "q"}); err != nil {
			t.Fatal(err)
		}
	}
	psi()
	sum := int64(2 * b)
	if got := e.HeldBytes(); got != sum {
		t.Fatalf("held after the first query = %d, want the %d-byte owner sum", got, sum)
	}
	if _, err := e.Handle(context.Background(), protocol.StoreDeltaRequest{
		Owner: 0, Table: "t", Pos: []uint64{1},
		Chi: []uint16{1}, Sums: map[string][]uint64{"v": {3}}, Cnt: []uint64{1},
	}); err != nil {
		t.Fatal(err)
	}
	overlay := int64(3 * deltaEntryBytes) // χ, the sum and the count
	for range 2 {
		psi()
		if got, want := e.HeldBytes(), sum+overlay+2*chunk*2; got != want {
			t.Fatalf("held with a pending update = %d, want %d (sum, overlay and both owners' χ chunk)", got, want)
		}
	}
	if _, err := e.Compact("t"); err != nil {
		t.Fatal(err)
	}
	if got := e.HeldBytes(); got != 0 {
		t.Fatalf("held after the compaction swap = %d, want 0", got)
	}
}
