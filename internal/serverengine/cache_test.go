package serverengine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"prism/internal/protocol"
)

func psiStats(t *testing.T, e *Engine) (protocol.PSIReply, protocol.Stats) {
	t.Helper()
	r, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "t", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	reply := r.(protocol.PSIReply)
	return reply, reply.Stats
}

// TestHotColumnCachePSI asserts the second query of a table epoch serves
// its χ-shares from memory: zero fetch time, and one cache hit — the
// epoch's owner sum, whatever the owner count.
func TestHotColumnCachePSI(t *testing.T) {
	const b = 64
	engines, _ := diskEngines(t, b, 0, nil)
	storeFull(t, engines, b, false)

	cold, coldStats := psiStats(t, engines[0])
	if coldStats.CacheHits != 0 {
		t.Errorf("cold query reported %d cache hits", coldStats.CacheHits)
	}
	if coldStats.FetchNS <= 0 {
		t.Errorf("cold query reported no fetch time")
	}
	warm, warmStats := psiStats(t, engines[0])
	if warmStats.CacheHits != 1 {
		t.Errorf("warm query cache hits = %d, want 1", warmStats.CacheHits)
	}
	if warmStats.FetchNS != 0 {
		t.Errorf("warm query fetch time = %dns, want 0", warmStats.FetchNS)
	}
	if !reflect.DeepEqual(cold.Out, warm.Out) {
		t.Error("cached query changed the PSI output")
	}
}

// TestHotColumnCacheInvalidatedByStore asserts a re-outsource starts a
// new epoch: the next query reads from disk again.
func TestHotColumnCacheInvalidatedByStore(t *testing.T) {
	const b = 64
	engines, _ := diskEngines(t, b, 0, nil)
	storeFull(t, engines, b, false)
	psiStats(t, engines[0]) // warm the cache
	if _, s := psiStats(t, engines[0]); s.CacheHits == 0 {
		t.Fatal("cache never warmed")
	}

	// Any owner re-outsourcing bumps the epoch for the whole table.
	storeFull(t, engines, b, false)
	if _, s := psiStats(t, engines[0]); s.CacheHits != 0 || s.FetchNS <= 0 {
		t.Errorf("post-store query: hits=%d fetchNS=%d, want cold read", s.CacheHits, s.FetchNS)
	}
}

// TestHotColumnCacheSingleFlight runs many concurrent cold queries and
// asserts the owner sum was built exactly once: of the n queries'
// lookups of the sum, all but the building one hit, and the build's
// owner chunks are read straight from the store, so the epoch's cache
// holds the sum alone.
func TestHotColumnCacheSingleFlight(t *testing.T) {
	const b, n = 64, 8
	engines, _ := diskEngines(t, b, 0, nil)
	storeFull(t, engines, b, false)

	var wg sync.WaitGroup
	outs := make([][]uint32, n)
	stats := make([]protocol.Stats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := engines[0].Handle(context.Background(), protocol.PSIRequest{
				Table: "t", QueryID: fmt.Sprintf("q%d", i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = r.(protocol.PSIReply).Out
			stats[i] = r.(protocol.PSIReply).Stats
		}(i)
	}
	wg.Wait()
	totalHits := 0
	for _, s := range stats {
		totalHits += s.CacheHits
	}
	if want := n - 1; totalHits != want {
		t.Errorf("total cache hits = %d, want %d (the sum built once)", totalHits, want)
	}
	e := engines[0]
	e.mu.RLock()
	cache := e.tables["t"].cache
	e.mu.RUnlock()
	if got := cache.Len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1 (the sum)", got)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(outs[0], outs[i]) {
			t.Fatalf("concurrent query %d diverged", i)
		}
	}
}
