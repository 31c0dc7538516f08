package ownerengine

import (
	"context"
	"errors"
	"sync"

	"prism/internal/protocol"
)

// defaultShardInflight bounds how many shard exchanges one query keeps
// in flight at once. Each shard exchange pipelines one RPC per contacted
// server over the multiplexed transport, so the effective per-connection
// depth is min(defaultShardInflight, the transport's PerConnInflight);
// raising PerConnInflight past this constant buys sharded queries
// nothing, lowering it below queues shards at the transport instead.
const defaultShardInflight = 8

// SetShardCells sets the owner's shard size: every O(b) exchange (table
// upload, PSI/PSU/count vectors, aggregation selectors and replies) is
// split into windows of at most n cells, each moving as its own frame
// over the multiplexed transport. 0 (the default) restores the
// monolithic one-frame-per-exchange wire behaviour. Safe to call
// concurrently with queries; in-flight queries keep the plan they
// started with.
func (o *engine) SetShardCells(n uint64) { o.shardCells.Store(n) }

// ShardCells reports the current shard size (0 = monolithic).
func (o *engine) ShardCells() uint64 { return o.shardCells.Load() }

// shardPlan is the frame decomposition of one O(b) exchange.
type shardPlan struct {
	ranges []protocol.Range
	wire   bool // stamp Shard on requests (sharded wire mode)
}

// plan splits [0, b) into shard windows. With sharding off it returns a
// single whole-domain range with wire=false: requests then carry the
// zero Shard, which a server reads as "the whole table in one frame"
// (Engine.window), so each exchange stays one frame.
func (o *engine) plan(b uint64) shardPlan {
	s := o.shardCells.Load()
	if s == 0 || b == 0 {
		return shardPlan{ranges: []protocol.Range{{Offset: 0, Count: b}}}
	}
	if s > b {
		s = b // a shard larger than the domain degenerates to one window
	}
	ranges := make([]protocol.Range, 0, (b+s-1)/s)
	for off := uint64(0); off < b; off += s {
		cnt := s
		if b-off < cnt {
			cnt = b - off
		}
		ranges = append(ranges, protocol.Range{Offset: off, Count: cnt})
	}
	return shardPlan{ranges: ranges, wire: true}
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
func (o *engine) forEachShard(ctx context.Context, p shardPlan, nsrv int, build func(phi int, rg protocol.Range) any, merge func(rg protocol.Range, replies []any) error) error {
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
	for _, rg := range p.ranges {
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
			replies := make([]any, nsrv)
			errs := make([]error, nsrv)
			var cwg sync.WaitGroup
			for phi := 0; phi < nsrv; phi++ {
				cwg.Add(1)
				go func(phi int) {
					defer cwg.Done()
					replies[phi], errs[phi] = o.caller.Call(ctx, o.servers[phi], build(phi, rg))
				}(phi)
			}
			cwg.Wait()
			if err := errors.Join(errs...); err != nil {
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
