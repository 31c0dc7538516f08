package serverengine

import (
	"container/list"
	"errors"
	"sync"

	"prism/internal/sharestore"
)

// chunkCache is one table epoch's cache. It holds two kinds of entry:
// the owner sums the kernels read — one whole-column entry per column
// (sumKey names; see ownerSum), on every tier — and, on a disk-backed
// engine with Options.CacheBytes set, the hot chunks of the owners'
// columns (colKey names), so an epoch's sum builds and overlay merges
// keep only the chunks they touch resident and re-touching one costs no
// disk read. An epoch ends whenever the table changes (a Store from any
// owner, a compaction swap, a recovery adoption, a Drop): the engine
// swaps in a fresh cache so later queries never serve stale entries.
// Entries already cached stay visible to queries holding the old
// snapshot, but a disk cache miss always reads the store's current files
// — so, exactly as without the cache, a query overlapping a re-outsource
// may combine columns from two epochs. That coordination is the caller's
// documented responsibility (see the package README: don't re-outsource
// a table being queried at that instant).
//
// Owner sums are pinned: never evicted, counted in held bytes, and 1/M
// of the table's bytes. The chunks sit on an LRU list bounded by a byte
// budget (Options.CacheBytes): the least-recently-used are evicted once
// the budget is exceeded, and a budget of 0 caches none — every chunk is
// read straight from the store. Evicting an entry another query still
// holds a slice of is safe — the cache merely forgets it.
//
// Loads are single-flight per entry: under concurrent traffic the first
// query reads a chunk (or builds a sum) while the rest wait on the entry,
// so 40 simultaneous queries cost one load per entry, not 40.
type chunkCache struct {
	mu        sync.Mutex
	budget    int64             // the chunk LRU's bytes; 0 caches no chunk
	bytes     int64             // the chunks' bytes
	pinned    int64             // the owner sums' bytes
	track     func(delta int64) // held-bytes gauge hook (may be nil)
	entries   map[chunkID]*chunkEntry
	lru       *list.List // front = most recently used *chunkEntry
	discarded bool
}

// chunkID keys one cached entry: chunk k of disk column col, or (k 0)
// the owner sum of sumKey(col).
type chunkID struct {
	col string
	k   uint64
}

type chunkEntry struct {
	key   chunkID
	ready chan struct{} // closed once the load completes
	val   any           // the loaded []T
	size  int64
	err   error
	pin   bool          // an owner sum: never on the LRU list
	elem  *list.Element // nil until finished (or after eviction), and for pinned entries
}

func newChunkCache(budget int64, track func(delta int64)) *chunkCache {
	return &chunkCache{
		budget:  budget,
		track:   track,
		entries: make(map[chunkID]*chunkEntry),
		lru:     list.New(),
	}
}

// resetCache ends t's cache epoch: the old epoch's entries are released
// and a cold cache takes their place, its chunk LRU bounded by
// CacheBytes. It is the only invalidation the owner sums have. Caller
// holds e.mu.
func (e *Engine) resetCache(t *table) {
	if t.cache != nil {
		t.cache.discard()
	}
	t.cache = newChunkCache(e.opts.CacheBytes, e.trackHeld)
}

// cacheGet returns the cached entry key, loading it via load on first
// use; pin keeps it resident for the epoch instead of on the LRU. hit
// reports whether the load was skipped (served from the cache, possibly
// after waiting out another query's in-flight load). Failed
// loads are not cached. finish is guaranteed even when load panics (the
// transport recovers handler panics, so an abandoned entry would
// otherwise park every later query on ready forever).
func cacheGet[T sharestore.Cell](c *chunkCache, key chunkID, pin bool, load func() ([]T, error)) (v []T, hit bool, err error) {
	e, hit := c.entry(key)
	if !hit {
		e.pin = pin
		defer func() { c.finish(e) }()
		e.err = errLoadAborted
		v, e.err = load()
		e.val, e.size = v, int64(sharestore.Width[T]()*len(v))
		return v, false, e.err
	}
	<-e.ready
	v, _ = e.val.([]T)
	return v, true, e.err
}

// errLoadAborted is what waiters observe when a chunk load panicked
// before assigning its real result.
var errLoadAborted = errors.New("serverengine: chunk load aborted")

// entry claims or joins the entry for key. When the caller claimed it
// (hit false) it must load the chunk and call finish.
func (c *chunkCache) entry(key chunkID) (*chunkEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		return e, true
	}
	e := &chunkEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	return e, false
}

// finish publishes a completed load: failed entries are dropped so a
// transient disk error does not poison the epoch; a sum is pinned, and a
// chunk joins the LRU, which is then held to the budget.
func (c *chunkCache) finish(e *chunkEntry) {
	c.mu.Lock()
	switch {
	case e.err != nil:
		delete(c.entries, e.key)
	case c.discarded:
		// The epoch ended while the load was in flight: hand the value to
		// waiters but keep it out of the (already released) accounting.
	case e.pin:
		c.pinned += e.size
		if c.track != nil {
			c.track(e.size)
		}
	default:
		c.bytes += e.size
		if c.track != nil {
			c.track(e.size)
		}
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// evictLocked drops least-recently-used entries until the budget holds,
// always keeping the most recent entry resident (a single entry larger
// than the budget must still serve). Caller holds c.mu.
func (c *chunkCache) evictLocked() {
	for c.bytes > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		victim := back.Value.(*chunkEntry)
		c.lru.Remove(back)
		victim.elem = nil
		delete(c.entries, victim.key)
		c.bytes -= victim.size
		if c.track != nil {
			c.track(-victim.size)
		}
		mCacheEvictions.Inc()
	}
}

// discard releases the epoch's accounted bytes and detaches the cache:
// later loads still serve waiters (single-flight) but are not accounted
// or retained against the budget. Called when the table's epoch ends.
func (c *chunkCache) discard() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.discarded {
		return
	}
	c.discarded = true
	if c.track != nil && c.bytes+c.pinned != 0 {
		c.track(-c.bytes - c.pinned)
	}
	c.bytes, c.pinned = 0, 0
	c.entries = make(map[chunkID]*chunkEntry)
	c.lru.Init()
}

// Len reports the number of cached entries (tests and monitoring).
func (c *chunkCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the chunk LRU's resident bytes (tests and monitoring).
func (c *chunkCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
