package prism

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"prism/internal/ownerengine"
)

// OpKind names one query operator; OpKind.String, the gateway's front
// protocol and prism-owner -op all read the one kind table in
// internal/ownerengine.
type OpKind = ownerengine.OpKind

// Query operators.
const (
	OpPSI       = ownerengine.OpPSI
	OpPSU       = ownerengine.OpPSU
	OpPSICount  = ownerengine.OpPSICount
	OpPSUCount  = ownerengine.OpPSUCount
	OpPSISum    = ownerengine.OpPSISum
	OpPSIAvg    = ownerengine.OpPSIAvg
	OpPSUSum    = ownerengine.OpPSUSum
	OpPSUAvg    = ownerengine.OpPSUAvg
	OpPSIMax    = ownerengine.OpPSIMax
	OpPSIMin    = ownerengine.OpPSIMin
	OpPSIMedian = ownerengine.OpPSIMedian
)

// Request describes one query for the scheduler. Sum/avg ops take one or
// more aggregation columns; max/min/median take exactly one.
type Request struct {
	Op   OpKind
	Cols []string
	// PinOwner routes the query to OwnerIdx instead of letting the
	// scheduler rotate round-robin (the zero-value default).
	PinOwner bool
	OwnerIdx int
}

// Response is the outcome of one scheduled query. Exactly one of Set,
// Count, Agg, Extreme is non-nil on success, matching the request's Op.
type Response struct {
	Op    OpKind
	Owner int // index of the owner that drove the query

	Set     *SetResult
	Count   *CountResult
	Agg     *AggregateResult
	Extreme *ExtremeResult
	Err     error

	// Result is the same answer in the family-neutral form the gateway
	// and prism-owner also get from ownerengine.Exec (the typed results
	// above are views of it); code that handles every kind alike reads
	// this. Nil on error.
	Result *ownerengine.Result
}

// Future is the handle for an in-flight asynchronous query.
type Future struct {
	ch   chan *Response
	once sync.Once
	resp *Response
}

// Wait blocks until the query finishes and returns its response.
// Repeated calls return the same response.
func (f *Future) Wait() *Response {
	f.once.Do(func() { f.resp = <-f.ch })
	return f.resp
}

// limiter bounds the number of concurrently executing queries: a
// counting semaphore whose width is fixed when the system is built
// (Config.MaxInflight).
type limiter chan struct{}

func newLimiter(limit int) limiter {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return make(limiter, limit)
}

// acquire blocks until a slot is free or ctx is done.
func (l limiter) acquire(ctx context.Context) error {
	// select picks at random among ready cases; a context that is
	// already dead must lose even when a slot is free.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l limiter) release() { <-l }

// QueryAsync submits one query to the bounded scheduler and returns
// immediately. The query starts once an in-flight slot is free and,
// unless req.PinOwner is set, is routed to the next owner round-robin.
// All scheduler entry points are safe for concurrent use.
func (s *System) QueryAsync(ctx context.Context, req Request) *Future {
	f := &Future{ch: make(chan *Response, 1)}
	go func() {
		if err := s.sched.acquire(ctx); err != nil {
			f.ch <- &Response{Op: req.Op, Owner: -1, Err: err}
			return
		}
		defer s.sched.release()
		f.ch <- s.execute(ctx, req)
	}()
	return f
}

// QueryBatch runs a batch of queries through the scheduler and waits for
// all of them. Responses are positionally parallel to reqs; per-query
// failures land in Response.Err rather than failing the batch.
func (s *System) QueryBatch(ctx context.Context, reqs []Request) []*Response {
	futures := make([]*Future, len(reqs))
	for i, r := range reqs {
		futures[i] = s.QueryAsync(ctx, r)
	}
	out := make([]*Response, len(reqs))
	for i, f := range futures {
		out[i] = f.Wait()
	}
	return out
}

// execute runs one request synchronously on its target owner. The
// column arity is checked (ownerengine.CheckCols: set/count operators
// carry no columns, sum/avg one or more, max/min/median exactly one)
// before an owner is picked; error responses that never reached an
// owner report Owner: -1.
func (s *System) execute(ctx context.Context, req Request) *Response {
	if err := ownerengine.CheckCols(req.Op, req.Cols); err != nil {
		return &Response{Op: req.Op, Owner: -1, Err: err}
	}
	if req.PinOwner {
		if req.OwnerIdx < 0 || req.OwnerIdx >= len(s.owners) {
			return &Response{Op: req.Op, Owner: -1,
				Err: fmt.Errorf("prism: owner index %d out of range [0,%d)", req.OwnerIdx, len(s.owners))}
		}
		return s.run(ctx, s.owners[req.OwnerIdx], req)
	}
	ow, err := s.nextQuerier()
	if err != nil {
		return &Response{Op: req.Op, Owner: -1, Err: err}
	}
	return s.run(ctx, ow, req)
}
