package prism

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// TestShardedMatchesMonolithic runs every operator on systems built from
// identical data and seed under a sweep of shard sizes — the 64-cell
// domain not divisible by the shard, a shard equal to the domain, a
// shard larger than the domain, and single-cell shards — and requires
// byte-identical results to the monolithic baseline.
func TestShardedMatchesMonolithic(t *testing.T) {
	base := serialBaseline(t, concSystem(t))
	for _, shard := range []uint64{10, 64, 1000, 1} {
		shard := shard
		t.Run(fmt.Sprintf("shard=%d", shard), func(t *testing.T) {
			sys := concSystemShard(t, shard)
			for _, req := range mixedOps {
				resp := sys.execute(context.Background(), req)
				key := fmt.Sprintf("%v/%v", req.Op, req.Cols)
				if got := fingerprint(t, resp); got != base[key] {
					t.Errorf("%s diverged under shard=%d\n  monolithic: %s\n  sharded:    %s",
						key, shard, base[key], got)
				}
			}
		})
	}
}

// TestShardedConcurrentMatchesSerial is the sharded twin of the headline
// stress test: 40 concurrent mixed queries over sharded exchanges (many
// shard RPCs in flight per query, merges folding in concurrently) must
// equal the monolithic serial baseline — and leave zero sessions on
// every engine.
func TestShardedConcurrentMatchesSerial(t *testing.T) {
	base := serialBaseline(t, concSystem(t))
	sys := concSystemShard(t, 10)
	var reqs []Request
	for r := 0; r < 4; r++ {
		reqs = append(reqs, mixedOps...)
	}
	resps := sys.QueryBatch(context.Background(), reqs)
	for i, resp := range resps {
		key := fmt.Sprintf("%v/%v", reqs[i].Op, reqs[i].Cols)
		if got := fingerprint(t, resp); got != base[key] {
			t.Errorf("request %d (%s): sharded concurrent result diverged\n  serial:  %s\n  sharded: %s",
				i, key, base[key], got)
		}
	}
	assertNoSessions(t, sys)
}

// TestShardedDiskChunkedMatchesMonolithic runs the full operator mix on
// a disk-backed system with sharded exchanges, chunked columns aligned
// to the shard windows, and a tightly bounded hot-chunk cache — the
// larger-than-RAM serving configuration — and requires byte-identical
// results to the in-memory monolithic baseline. The sharded upload
// streams each window straight to disk, so this also pins the
// stream-assemble-rename path end to end.
func TestShardedDiskChunkedMatchesMonolithic(t *testing.T) {
	base := serialBaseline(t, concSystem(t))
	dom, err := IntDomain(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewLocalSystem(Config{
		Owners:      4,
		Domain:      dom,
		AggColumns:  []string{"v", "w"},
		MaxAggValue: 100000,
		Verify:      true,
		Seed:        [32]byte{9, 9, 9}, // concSystem's data and seed
		EncodeWire:  true,
		ShardCells:  16,
		ChunkCells:  16,
		DiskDir:     t.TempDir(),
		HotChunks:   4 * 16 * 2, // 4 uint16 chunks: forces LRU eviction
	})
	if err != nil {
		t.Fatal(err)
	}
	loadConcData(t, sys)
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // cold then (partially) warm
		for _, req := range mixedOps {
			resp := sys.execute(context.Background(), req)
			key := fmt.Sprintf("%v/%v", req.Op, req.Cols)
			if got := fingerprint(t, resp); got != base[key] {
				t.Errorf("%s diverged on disk+chunked round %d\n  memory: %s\n  disk:   %s",
					key, round, base[key], got)
			}
		}
	}
	assertNoSessions(t, sys)
}

// TestShardedSingleCellDomain: the b=1 degenerate domain works sharded
// (one window of one cell) and monolithic.
func TestShardedSingleCellDomain(t *testing.T) {
	for _, shard := range []uint64{0, 1, 4} {
		dom, err := IntDomain(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewLocalSystem(Config{
			Owners:     2,
			Domain:     dom,
			Seed:       [32]byte{1},
			EncodeWire: true,
			ShardCells: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if err := sys.Owner(j).LoadCells([]uint64{0}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.OutsourceAll(context.Background()); err != nil {
			t.Fatalf("shard=%d: outsource: %v", shard, err)
		}
		res, err := sys.PSI(context.Background())
		if err != nil {
			t.Fatalf("shard=%d: PSI: %v", shard, err)
		}
		if len(res.Cells) != 1 || res.Cells[0] != 0 {
			t.Fatalf("shard=%d: PSI = %v, want [0]", shard, res.Cells)
		}
		cnt, err := sys.PSICount(context.Background())
		if err != nil {
			t.Fatalf("shard=%d: count: %v", shard, err)
		}
		if cnt.Count != 1 {
			t.Fatalf("shard=%d: count = %d, want 1", shard, cnt.Count)
		}
	}
}

// TestShardedCancellationMidStream cancels a query while its shard
// stream is in flight: the query must return promptly with a context
// error, the system must stay healthy for subsequent queries, and no
// session state may linger.
func TestShardedCancellationMidStream(t *testing.T) {
	sys := concSystemShard(t, 8) // 64 cells → 8 shard windows
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hit := make(chan struct{}, 1)
	sys.interceptServer(0, func(h transport.Handler) transport.Handler {
		return transport.HandlerFunc(func(hctx context.Context, req any) (any, error) {
			if r, ok := req.(protocol.PSIRequest); ok && r.Shard.Offset > 0 {
				// A mid-stream shard: park until the query is cancelled.
				select {
				case hit <- struct{}{}:
				default:
				}
				<-hctx.Done()
				return nil, hctx.Err()
			}
			return h.Handle(hctx, req)
		})
	})
	go func() {
		<-hit
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := sys.Owner(0).PSI(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled sharded PSI succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sharded PSI returned %v, want context.Canceled in the chain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sharded PSI did not return")
	}

	// The fabric must be healthy again once the interceptor is removed.
	sys.restoreServer(0)
	if _, err := sys.Owner(0).PSI(context.Background()); err != nil {
		t.Fatalf("PSI after cancellation: %v", err)
	}
	assertNoSessions(t, sys)
}

// TestShardedBeatsFrameCap is the acceptance demonstration: with the
// transport frame cap lowered, a domain whose monolithic exchanges
// exceed the cap fails outright — and the same domain outsources and
// answers PSI and count correctly once ShardCells bounds the frames.
func TestShardedBeatsFrameCap(t *testing.T) {
	restore := transport.SetFrameLimit(4 << 10) // 4 KiB: a toy MaxFrameBytes
	defer restore()

	const b = 4096
	build := func(shard uint64) (*System, []uint64, error) {
		dom, err := IntDomain(1, b)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewLocalSystem(Config{
			Owners:      3,
			Domain:      dom,
			AggColumns:  []string{"v"},
			MaxAggValue: 1 << 20,
			Seed:        [32]byte{7},
			EncodeWire:  true, // encode every message → the cap is enforced
			ShardCells:  shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		common := []uint64{41, 1000, 4000} // planted intersection
		for j := 0; j < 3; j++ {
			cells := append([]uint64(nil), common...)
			for k := 0; k < 40; k++ {
				cells = append(cells, uint64((j*997+k*131)%b))
			}
			vs := make([]uint64, len(cells))
			for i := range vs {
				vs[i] = uint64(j + i)
			}
			if err := sys.Owner(j).LoadCells(cells, map[string][]uint64{"v": vs}); err != nil {
				t.Fatal(err)
			}
		}
		_, err = sys.OutsourceAll(context.Background())
		return sys, common, err
	}

	// Monolithic: one 4096-cell Shamir column alone is 32 KiB on the
	// wire, eight times the cap.
	if _, _, err := build(0); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("monolithic outsource at b=%d under a 4 KiB cap: err = %v, want ErrFrameTooLarge", b, err)
	}

	// Sharded: 128-cell windows keep every frame under the cap.
	sys, common, err := build(128)
	if err != nil {
		t.Fatalf("sharded outsource failed under the cap: %v", err)
	}
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatalf("sharded PSI: %v", err)
	}
	// Owner noise cells can coincide, so recompute the true intersection
	// directly from the loaded data as the oracle.
	truth := intersectOwners(sys)
	if len(res.Cells) != len(truth) {
		t.Fatalf("sharded PSI found %d cells, want %d", len(res.Cells), len(truth))
	}
	for _, c := range res.Cells {
		if !truth[c] {
			t.Fatalf("sharded PSI reported cell %d outside the true intersection", c)
		}
	}
	for _, c := range common {
		if !truth[c] {
			t.Fatalf("planted common cell %d missing from the oracle intersection", c)
		}
	}
	cnt, err := sys.PSICount(context.Background())
	if err != nil {
		t.Fatalf("sharded count: %v", err)
	}
	if cnt.Count != len(truth) {
		t.Fatalf("sharded count = %d, want %d", cnt.Count, len(truth))
	}
	agg, err := sys.PSISum(context.Background(), "v")
	if err != nil {
		t.Fatalf("sharded PSI-sum: %v", err)
	}
	if len(agg.Cells) != len(truth) {
		t.Fatalf("sharded PSI-sum grouped on %d cells, want %d", len(agg.Cells), len(truth))
	}
}

// intersectOwners recomputes the true intersection from the owners'
// loaded data (test oracle).
func intersectOwners(sys *System) map[uint64]bool {
	counts := map[uint64]int{}
	for j := 0; j < sys.Owners(); j++ {
		seen := map[uint64]bool{}
		for _, c := range sys.Owner(j).Engine().Data().Cells {
			if !seen[c] {
				seen[c] = true
				counts[c]++
			}
		}
	}
	out := map[uint64]bool{}
	for c, n := range counts {
		if n == sys.Owners() {
			out[c] = true
		}
	}
	return out
}
