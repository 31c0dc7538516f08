package serverengine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// shardSpec is an 8-cell Plain χ-only table used by the sharded-store
// assembly tests.
var shardSpec = protocol.TableSpec{Name: "t8", B: 8, Plain: true}

func shardEngine() *Engine {
	v := paperView(0)
	v.B = 8
	return New(v, Options{Threads: 1})
}

func storeShard(t *testing.T, e *Engine, off, cnt uint64, chi []uint16) (protocol.StoreReply, error) {
	t.Helper()
	return storeShardID(t, e, "u1", off, cnt, chi)
}

func storeShardID(t *testing.T, e *Engine, uploadID string, off, cnt uint64, chi []uint16) (protocol.StoreReply, error) {
	t.Helper()
	reply, err := e.Handle(context.Background(), protocol.StoreRequest{
		Owner: 0, Spec: shardSpec, UploadID: uploadID,
		Shard:  protocol.Range{Offset: off, Count: cnt},
		ChiAdd: chi,
	})
	if err != nil {
		return protocol.StoreReply{}, err
	}
	return reply.(protocol.StoreReply), nil
}

// TestShardedStoreAssembles uploads a table in out-of-order shards and
// checks the assembled columns answer PSI exactly like a monolithic
// upload of the same data.
func TestShardedStoreAssembles(t *testing.T) {
	full := []uint16{1, 2, 3, 4, 0, 1, 2, 3}
	ctx := context.Background()

	mono := shardEngine()
	if _, err := mono.Handle(ctx, protocol.StoreRequest{Owner: 0, Spec: shardSpec, ChiAdd: full}); err != nil {
		t.Fatal(err)
	}
	// Complete the table for the remaining owners so lookup succeeds.
	for owner := 1; owner < 3; owner++ {
		if _, err := mono.Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: shardSpec, ChiAdd: make([]uint16, 8)}); err != nil {
			t.Fatal(err)
		}
	}

	sharded := shardEngine()
	windows := []struct{ off, cnt uint64 }{{3, 3}, {6, 2}, {0, 3}} // out of order, uneven tail
	for i, w := range windows {
		rep, err := storeShard(t, sharded, w.off, w.cnt, full[w.off:w.off+w.cnt])
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if i < len(windows)-1 && rep.Cells >= 8 {
			t.Fatalf("shard %d: table complete too early (%d cells)", i, rep.Cells)
		}
		if i == len(windows)-1 && rep.Cells != 8 {
			t.Fatalf("final shard reported %d cells, want 8", rep.Cells)
		}
	}
	for owner := 1; owner < 3; owner++ {
		if _, err := sharded.Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: shardSpec, ChiAdd: make([]uint16, 8)}); err != nil {
			t.Fatal(err)
		}
	}

	for _, req := range []protocol.PSIRequest{
		{Table: "t8", QueryID: "q"},
		{Table: "t8", QueryID: "q", Shard: protocol.Range{Offset: 2, Count: 5}},
	} {
		a, err := mono.Handle(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Handle(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ao, bo := a.(protocol.PSIReply).Out, b.(protocol.PSIReply).Out
		if len(ao) != len(bo) {
			t.Fatalf("reply lengths differ: %d vs %d", len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("cell %d: monolithic %d != sharded-store %d", i, ao[i], bo[i])
			}
		}
	}
}

// TestShardedStoreOverlapRejected ensures duplicate or overlapping
// windows cannot silently overwrite cells.
func TestShardedStoreOverlapRejected(t *testing.T) {
	e := shardEngine()
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := storeShard(t, e, 2, 4, make([]uint16, 4)); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping shard accepted (err = %v)", err)
	}
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 4)); err == nil {
		t.Fatal("duplicate shard accepted")
	}
}

// TestShardedStoreOutOfRangeRejected checks window bounds.
func TestShardedStoreOutOfRangeRejected(t *testing.T) {
	e := shardEngine()
	if _, err := storeShard(t, e, 6, 4, make([]uint16, 4)); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := storeShard(t, e, 8, 1, make([]uint16, 1)); err == nil {
		t.Fatal("offset-at-b shard accepted")
	}
	// Column length must match the window, not the table.
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 8)); err == nil {
		t.Fatal("wrong-length shard column accepted")
	}
}

// TestShardedStoreOversizedTableRejected: a first shard whose spec claims
// more cells than the system domain — a tiny window of a 2^40-cell Plain
// table passes every per-window check — must be refused before anything
// is allocated or created for it, in RAM and on disk.
func TestShardedStoreOversizedTableRejected(t *testing.T) {
	st, err := sharestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{"ram": {Threads: 1}, "disk": {Threads: 1, Store: st}} {
		t.Run(name, func(t *testing.T) {
			v := paperView(0)
			v.B = 8
			e := New(v, opts)
			held := e.HeldBytes()
			_, err := e.Handle(context.Background(), protocol.StoreRequest{
				Owner: 0, UploadID: "u1",
				Spec:   protocol.TableSpec{Name: "huge", B: 1 << 40, Plain: true},
				Shard:  protocol.Range{Offset: 0, Count: 4},
				ChiAdd: make([]uint16, 4),
			})
			if !errors.Is(err, ErrTableTooLarge) {
				t.Fatalf("oversized table: err = %v, want ErrTableTooLarge", err)
			}
			if e.HeldBytes() != held || e.PendingUploads() != 0 {
				t.Errorf("rejected upload left state behind: held %d → %d, %d pending", held, e.HeldBytes(), e.PendingUploads())
			}
			if st.HasColumn("huge", "pend0.chi") {
				t.Error("rejected upload created a pending column")
			}
		})
	}
}

// TestShardedStoreIncompleteInvisible asserts a partially uploaded table
// is never queryable.
func TestShardedStoreIncompleteInvisible(t *testing.T) {
	e := shardEngine()
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t8", QueryID: "q"}); err == nil {
		t.Fatal("half-uploaded table answered a query")
	}
}

// TestShardedStoreSpecMismatchRejected: every shard must describe the
// same table layout.
func TestShardedStoreSpecMismatchRejected(t *testing.T) {
	e := shardEngine()
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	spec2 := shardSpec
	spec2.HasVerify = true
	// Same upload attempt (same UploadID), different layout → rejected.
	_, err := e.Handle(context.Background(), protocol.StoreRequest{
		Owner: 0, Spec: spec2, UploadID: "u1",
		Shard:     protocol.Range{Offset: 4, Count: 4},
		ChiAdd:    make([]uint16, 4),
		ChiBarAdd: make([]uint16, 4),
	})
	if err == nil || !strings.Contains(err.Error(), "spec differs") {
		t.Fatalf("mismatched shard spec accepted (err = %v)", err)
	}
}

// TestDropClearsPendingShards: dropping a table abandons half-assembled
// uploads so a fresh upload starts clean.
func TestDropClearsPendingShards(t *testing.T) {
	e := shardEngine()
	ctx := context.Background()
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Handle(ctx, protocol.DropRequest{Table: "t8"}); err != nil {
		t.Fatal(err)
	}
	// Re-uploading the same window must succeed — stale pending state
	// would reject it as an overlap.
	if _, err := storeShard(t, e, 0, 4, make([]uint16, 4)); err != nil {
		t.Fatalf("re-upload after drop rejected: %v", err)
	}
	rep, err := storeShard(t, e, 4, 4, make([]uint16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 8 {
		t.Fatalf("re-assembled table has %d cells, want 8", rep.Cells)
	}
}

// TestRetrySupersedesStalePending: an upload attempt that died midway
// must not brick retries — a new UploadID replaces the stale assembly
// instead of colliding with its windows.
func TestRetrySupersedesStalePending(t *testing.T) {
	e := shardEngine()
	// Attempt 1 dies after one window.
	if _, err := storeShardID(t, e, "attempt-1", 0, 4, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	// Attempt 2 re-sends the same windows under a fresh id.
	if _, err := storeShardID(t, e, "attempt-2", 0, 4, make([]uint16, 4)); err != nil {
		t.Fatalf("retry rejected by stale pending windows: %v", err)
	}
	rep, err := storeShardID(t, e, "attempt-2", 4, 4, make([]uint16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 8 {
		t.Fatalf("retried upload assembled %d cells, want 8", rep.Cells)
	}
	// Within one attempt, overlaps are still rejected.
	if _, err := storeShardID(t, e, "attempt-3", 0, 4, make([]uint16, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := storeShardID(t, e, "attempt-3", 2, 2, make([]uint16, 2)); err == nil {
		t.Fatal("overlap within one attempt accepted")
	}
}

// TestStaleUploadStragglersRejected: with ordered "<epoch>/<seq>" ids,
// in-flight shards of an abandoned attempt that execute after a newer
// retry started (or finished) must be rejected — they may neither reset
// the retry's assembly nor re-register stale columns.
func TestStaleUploadStragglersRejected(t *testing.T) {
	e := shardEngine()
	ctx := context.Background()
	fresh := []uint16{1, 2, 3, 4, 5, 6, 7, 8}
	stale := make([]uint16, 8) // the abandoned attempt's (different) data

	// Attempt e/1 got one window out before being cancelled.
	if _, err := storeShardID(t, e, "e/1", 0, 4, stale[0:4]); err != nil {
		t.Fatal(err)
	}
	// Retry e/2 starts; a straggler of e/1 lands mid-retry.
	if _, err := storeShardID(t, e, "e/2", 0, 4, fresh[0:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := storeShardID(t, e, "e/1", 4, 4, stale[4:8]); err == nil {
		t.Fatal("stale mid-retry straggler accepted")
	}
	rep, err := storeShardID(t, e, "e/2", 4, 4, fresh[4:8])
	if err != nil {
		t.Fatalf("retry window after straggler rejected: %v", err)
	}
	if rep.Cells != 8 {
		t.Fatalf("retry assembled %d cells, want 8 (straggler reset the assembly?)", rep.Cells)
	}

	// Post-completion stragglers must not re-assemble a stale epoch.
	if _, err := storeShardID(t, e, "e/1", 0, 4, stale[0:4]); err == nil {
		t.Fatal("post-completion stale shard accepted")
	}
	if _, err := storeShardID(t, e, "e/1", 4, 4, stale[4:8]); err == nil {
		t.Fatal("post-completion stale shard accepted")
	}
	// A duplicate of the completed attempt itself must not re-create a
	// full-size pending assembly that can never complete.
	if _, err := storeShardID(t, e, "e/2", 0, 4, fresh[0:4]); err == nil {
		t.Fatal("duplicate shard of a completed attempt accepted")
	}
	e.pendMu.Lock()
	if n := len(e.pending); n != 0 {
		e.pendMu.Unlock()
		t.Fatalf("stragglers left %d pending assemblies behind", n)
	}
	e.pendMu.Unlock()

	// The registered table must hold the retry's data: complete the
	// other owners and compare PSI output against a monolithic upload
	// of the same fresh columns.
	for owner := 1; owner < 3; owner++ {
		if _, err := e.Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: shardSpec, ChiAdd: make([]uint16, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	mono := shardEngine()
	if _, err := mono.Handle(ctx, protocol.StoreRequest{Owner: 0, Spec: shardSpec, ChiAdd: fresh}); err != nil {
		t.Fatal(err)
	}
	for owner := 1; owner < 3; owner++ {
		if _, err := mono.Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: shardSpec, ChiAdd: make([]uint16, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := mono.Handle(ctx, protocol.PSIRequest{Table: "t8", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Handle(ctx, protocol.PSIRequest{Table: "t8", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	ao, bo := a.(protocol.PSIReply).Out, b.(protocol.PSIReply).Out
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("cell %d: stale straggler corrupted the registered table (%d != %d)", i, bo[i], ao[i])
		}
	}
}

// TestZeroCellPSU: a zero-cell Plain table must answer PSU with an
// empty vector, not spin the worker pool (rg.End()-1 underflow).
func TestZeroCellPSU(t *testing.T) {
	e := shardEngine()
	ctx := context.Background()
	spec := protocol.TableSpec{Name: "empty", B: 0, Plain: true}
	for owner := 0; owner < 3; owner++ {
		if _, err := e.Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: spec, ChiAdd: []uint16{}}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		reply, err := e.Handle(ctx, protocol.PSURequest{Table: "empty", QueryID: "q"})
		if err != nil {
			t.Error(err)
			return
		}
		if out := reply.(protocol.PSUReply).Out; len(out) != 0 {
			t.Errorf("zero-cell PSU returned %d cells", len(out))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("zero-cell PSU hung")
	}
}

// TestShardedPSIRejectsFrontierMix: a shard range and a bucket frontier
// in one request is a protocol error.
func TestShardedPSIRejectsFrontierMix(t *testing.T) {
	e := shardEngine()
	ctx := context.Background()
	for owner := 0; owner < 3; owner++ {
		if _, err := e.Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: shardSpec, ChiAdd: make([]uint16, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Handle(ctx, protocol.PSIRequest{
		Table: "t8", QueryID: "q",
		Shard: protocol.Range{Offset: 0, Count: 2},
		Cells: []uint32{1},
	})
	if err == nil {
		t.Fatal("shard+frontier request accepted")
	}
	if _, err := e.Handle(ctx, protocol.PSIRequest{
		Table: "t8", QueryID: "q",
		Shard: protocol.Range{Offset: 6, Count: 4},
	}); err == nil {
		t.Fatal("out-of-range query shard accepted")
	}
}
