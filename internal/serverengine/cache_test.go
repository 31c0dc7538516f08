package serverengine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// newHotEngines builds three disk-backed engines with the hot-chunk
// cache enabled, under a budget every column of the test tables fits in.
func newHotEngines(t *testing.T, b uint64) []*Engine {
	t.Helper()
	return newEngines(t, b, func(phi int) Options {
		st, err := sharestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return Options{Threads: 2, Store: st, CacheBytes: 1 << 20}
	})
}

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
// its χ-shares from memory: zero fetch time, one cache hit per owner.
func TestHotColumnCachePSI(t *testing.T) {
	const b, m = 64, 2
	engines := newHotEngines(t, b)
	storeFull(t, engines, b, false)

	cold, coldStats := psiStats(t, engines[0])
	if coldStats.CacheHits != 0 {
		t.Errorf("cold query reported %d cache hits", coldStats.CacheHits)
	}
	if coldStats.FetchNS <= 0 {
		t.Errorf("cold query reported no fetch time")
	}
	warm, warmStats := psiStats(t, engines[0])
	if warmStats.CacheHits != m {
		t.Errorf("warm query cache hits = %d, want %d", warmStats.CacheHits, m)
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
	engines := newHotEngines(t, b)
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
// asserts each column was loaded exactly once: total hits across
// queries == calls − columns.
func TestHotColumnCacheSingleFlight(t *testing.T) {
	const b, m, n = 64, 2, 8
	engines := newHotEngines(t, b)
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
	// n queries × m χ-columns, of which exactly m are loads.
	if want := n*m - m; totalHits != want {
		t.Errorf("total cache hits = %d, want %d (each column loaded once)", totalHits, want)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(outs[0], outs[i]) {
			t.Fatalf("concurrent query %d diverged", i)
		}
	}
}

// TestCacheDisabledByDefault asserts disk-backed engines without a
// CacheBytes budget keep the per-query fetch semantics (every query reads the
// store, reporting real fetch time) that the benchx fetch-timing
// experiments rely on.
func TestCacheDisabledByDefault(t *testing.T) {
	const b = 64
	engines := newEngines(t, b, func(phi int) Options {
		st, err := sharestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return Options{Threads: 2, Store: st}
	})
	storeFull(t, engines, b, false)
	psiStats(t, engines[0])
	if _, s := psiStats(t, engines[0]); s.CacheHits != 0 || s.FetchNS <= 0 {
		t.Errorf("uncached engine: hits=%d fetchNS=%d, want per-query disk reads", s.CacheHits, s.FetchNS)
	}
}
