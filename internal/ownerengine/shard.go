package ownerengine

import (
	"context"
	"sync"

	"prism/internal/protocol"
)

// defaultShardInflight bounds how many shard exchanges one query keeps
// in flight at once. Each shard exchange pipelines one RPC per contacted
// server over the multiplexed transport, so the effective per-connection
// depth is min(defaultShardInflight, the transport's PerConnInflight);
// raising PerConnInflight past this constant buys multi-window queries
// nothing, lowering it below queues shards at the transport instead.
const defaultShardInflight = 8

// SetShardCells sets the owner's window size: every O(b) exchange (table
// upload, PSI/PSU/count vectors, aggregation selectors and replies) moves
// as windows of at most n cells, each its own frame over the multiplexed
// transport. 0 (the default) is one window of b cells. Safe to call
// concurrently with queries; in-flight queries keep the plan they
// started with.
func (o *engine) SetShardCells(n uint64) { o.shardCells.Store(n) }

// plan splits [0, b) into the windows of one O(b) exchange. Every
// request carries its window explicitly; a window size of 0, b or more
// is the one-window plan {0, b}.
func (o *engine) plan(b uint64) []protocol.Range {
	s := o.shardCells.Load()
	if s == 0 || s > b {
		s = b
	}
	var ranges []protocol.Range
	for off := uint64(0); off < b; off += s {
		ranges = append(ranges, protocol.Range{Offset: off, Count: min(s, b-off)})
	}
	return ranges
}

// forEachShard runs one exchange per shard window against the first nsrv
// servers, keeping at most defaultShardInflight shard exchanges in
// flight. build constructs server φ's request for a window; merge folds
// the window's replies (indexed by server) into the caller's
// accumulators. merge calls are serialised — accumulators need no
// locking — and happen as shard replies complete, so partial results
// merge incrementally instead of materialising every reply at once.
//
// The first error (a failed call, a failed merge, or the caller's
// context dying) cancels the remaining shard exchanges and is returned
// after all in-flight work has drained.
func (o *engine) forEachShard(ctx context.Context, ranges []protocol.Range, nsrv int, build func(phi int, rg protocol.Range) any, merge func(rg protocol.Range, replies []any) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, defaultShardInflight)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // serialises merges, guards firstErr
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
loop:
	for _, rg := range ranges {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(ctx.Err())
			break loop
		}
		wg.Add(1)
		go func(rg protocol.Range) {
			defer wg.Done()
			defer func() { <-sem }()
			replies, err := o.callServers(ctx, nsrv, func(phi int) any { return build(phi, rg) })
			if err != nil {
				fail(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if firstErr != nil {
				return // a sibling shard already failed; drop this window
			}
			if err := merge(rg, replies); err != nil {
				firstErr = err
				cancel()
			}
		}(rg)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
