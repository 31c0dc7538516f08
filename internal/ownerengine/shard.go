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

// plan cuts runs of cells into the windows of one exchange: each run
// splits into windows of at most the window size, so no window spans two
// runs, and a window size of 0 leaves each run one window. Every request
// carries its window explicitly; an O(b) exchange plans the one run
// {0, b}.
func (o *engine) plan(runs ...protocol.Range) []protocol.Range {
	var windows []protocol.Range
	for _, run := range runs {
		s := o.shardCells
		if s == 0 || s > run.Count {
			s = run.Count
		}
		for off := run.Offset; off < run.End(); off += s {
			windows = append(windows, protocol.Range{Offset: off, Count: min(s, run.End()-off)})
		}
	}
	return windows
}

// forEachShard runs one exchange per shard window against the first nsrv
// servers, keeping at most defaultShardInflight shard exchanges in
// flight. build constructs server φ's request for a window; merge folds
// the window's replies (indexed by server) into the caller's
// accumulators. merge calls are serialised — accumulators need no
// locking — and happen as shard replies complete, so partial results
// merge incrementally instead of materialising every reply at once.
// A window's replies may borrow their frames: merge must not keep a
// reply's vectors, which go back to the frame pool when it returns (or
// when the window is dropped).
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
			replies, release, err := o.callServers(ctx, nsrv, func(phi int) any { return build(phi, rg) })
			defer release() // after merge: the replies' vectors may point into their frames
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
