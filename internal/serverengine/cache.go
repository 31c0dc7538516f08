package serverengine

import (
	"errors"
	"sync"

	"prism/internal/sharestore"
)

// chunkCache is one table epoch's cache. It holds two kinds of entry:
// the owner sums the kernels read — one whole-column entry per column
// (sumKey names; see ownerSum), on every tier — and, on a disk-backed
// engine, the owner chunks the overlay merge reads its base cells from
// (colKey names; see ownerBase), so a pending update costs one chunk
// read per owner and chunk per epoch, not one per query. An epoch ends
// whenever the table changes (a Store from any owner, a compaction
// swap): the engine swaps in a fresh cache so
// later queries never serve stale entries. Entries already cached stay
// visible to queries holding the old snapshot, and a disk cache miss
// reads the column slot the snapshot names: a re-outsource writes the
// owner's other slot and leaves the old one on disk, so a snapshot reads
// its own epoch's columns across it. The one remaining case is a second
// re-outsource of the same owner while a query still holds a view from
// two epochs back: that upload empties and reuses the slot the view
// names, so the query fails or reads the new columns (ROADMAP D1).
//
// Every entry is held for the epoch: counted in held bytes and released
// together when the epoch ends (discard). The sums are 1/M of the
// table's bytes; the chunks are the ones pending updates land in.
//
// Loads are single-flight per entry: under concurrent traffic the first
// query reads a chunk (or builds a sum) while the rest wait on the entry,
// so 40 simultaneous queries cost one load per entry, not 40.
type chunkCache struct {
	mu        sync.Mutex
	held      int64             // the entries' bytes
	track     func(delta int64) // held-bytes gauge hook (may be nil)
	entries   map[chunkID]*chunkEntry
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
}

func newChunkCache(track func(delta int64)) *chunkCache {
	return &chunkCache{track: track, entries: make(map[chunkID]*chunkEntry)}
}

// resetCache ends t's cache epoch: the old epoch's entries are released
// and a cold cache takes their place. It is the only invalidation the
// owner sums have. Caller holds e.mu.
func (e *Engine) resetCache(t *table) {
	if t.cache != nil {
		t.cache.discard()
	}
	t.cache = newChunkCache(e.trackHeld)
}

// cacheGet returns the cached entry key, loading it via load on first
// use. hit reports whether the load was skipped (served from the cache,
// possibly after waiting out another query's in-flight load). Failed
// loads are not cached. finish is guaranteed even when load panics (the
// transport recovers handler panics, so an abandoned entry would
// otherwise park every later query on ready forever).
func cacheGet[T sharestore.Cell](c *chunkCache, key chunkID, load func() ([]T, error)) (v []T, hit bool, err error) {
	e, hit := c.entry(key)
	if !hit {
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
		return e, true
	}
	e := &chunkEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	return e, false
}

// finish publishes a completed load: failed entries are dropped so a
// transient disk error does not poison the epoch; the rest are held and
// counted until the epoch ends.
func (c *chunkCache) finish(e *chunkEntry) {
	c.mu.Lock()
	switch {
	case e.err != nil:
		delete(c.entries, e.key)
	case c.discarded:
		// The epoch ended while the load was in flight: hand the value to
		// waiters but keep it out of the (already released) accounting.
	default:
		c.held += e.size
		if c.track != nil {
			c.track(e.size)
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// discard releases the epoch's accounted bytes and detaches the cache:
// later loads still serve waiters (single-flight) but are not accounted.
// Called when the table's epoch ends.
func (c *chunkCache) discard() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.discarded {
		return
	}
	c.discarded = true
	if c.track != nil && c.held != 0 {
		c.track(-c.held)
	}
	c.held = 0
	c.entries = make(map[chunkID]*chunkEntry)
}

// Len reports the number of cached entries (tests and monitoring).
func (c *chunkCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
