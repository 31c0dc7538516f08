package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/ownerengine"
)

// Query is one front-tier query: the kind and columns a client
// submitted. The backend fills in the table and verification setting.
type Query = ownerengine.Query

// Result is a query answer; handlePoll's deliver shapes it into the
// front protocol's reply fields.
type Result = ownerengine.Result

// ErrUnsupported reports a query kind the leased backend cannot serve
// (extremes through a lone pooled owner engine, which lacks the
// coordinated all-owner flow).
var ErrUnsupported = ownerengine.ErrUnsupported

// Backend is one owner-pool member: something that can execute a query
// and answer a liveness probe. EngineBackend is the one implementation
// outside tests — over TCP in cmd/prism-gateway, over the in-process
// fabric for a local prism.System — so the configuration that ships is
// the one the tests and benchmarks run; the interface is what lets the
// pool, admission and connection tests script a member's failures.
type Backend interface {
	Exec(ctx context.Context, q Query) (*Result, error)
	Ping(ctx context.Context) error
}

// Pool is the bounded set of owner engines the gateway multiplexes
// queries onto. Leases rotate round-robin over the healthy members; a
// member whose query fails AND whose liveness probe fails is marked
// down and skipped until the background prober revives it. A member
// whose query fails while its probe still answers keeps its lease —
// that failure is the query's (unknown table, verification error), and
// re-routing it would just fail m times.
type Pool struct {
	members []*member
	rr      atomic.Uint64

	// probeTimeout bounds the reactive "is it dead or is it my query?"
	// probe after an Exec failure.
	probeTimeout time.Duration
}

type member struct {
	backend Backend
	healthy atomic.Bool
}

// NewPool builds a pool over the given backends, all initially healthy.
func NewPool(backends []Backend) (*Pool, error) {
	if len(backends) == 0 {
		return nil, errors.New("gateway: pool needs at least one backend")
	}
	p := &Pool{probeTimeout: 2 * time.Second}
	for _, b := range backends {
		m := &member{backend: b}
		m.healthy.Store(true)
		p.members = append(p.members, m)
	}
	mPoolHealthy.Set(int64(len(backends)))
	return p, nil
}

// Size reports the pool's member count.
func (p *Pool) Size() int { return len(p.members) }

// Healthy reports how many members currently pass the liveness probe.
func (p *Pool) Healthy() int {
	n := 0
	for _, m := range p.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// lease picks the next healthy member round-robin. When every member is
// down it returns the next member anyway — a query racing the prober
// should try a possibly-revived owner, not fail without leaving the
// gateway.
func (p *Pool) lease() (int, *member) {
	n := len(p.members)
	start := int(p.rr.Add(1)-1) % n
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if p.members[i].healthy.Load() {
			return i, p.members[i]
		}
	}
	return start, p.members[start]
}

func (p *Pool) markDown(i int) {
	if p.members[i].healthy.CompareAndSwap(true, false) {
		mPoolHealthy.Set(int64(p.Healthy()))
	}
}

func (p *Pool) markUp(i int) {
	if p.members[i].healthy.CompareAndSwap(false, true) {
		mPoolHealthy.Set(int64(p.Healthy()))
	}
}

// Exec runs one query on the pool: lease a member, execute, and on a
// member-death failure re-route to the next member, up to one full
// rotation. Errors come back tagged with the owner index they came
// from, so a multi-member failure names its members. Context
// expiry is never re-routed: the client's deadline has passed, and a
// second owner cannot un-expire it.
func (p *Pool) Exec(ctx context.Context, q Query) (*Result, error) {
	var lastErr error
	for attempt := 0; attempt < len(p.members); attempt++ {
		i, m := p.lease()
		res, err := m.backend.Exec(ctx, q)
		if err == nil {
			p.markUp(i) // served a query: alive by definition
			return res, nil
		}
		if ctx.Err() != nil || errors.Is(err, ErrUnsupported) {
			return nil, fmt.Errorf("owner %d: %w", i, err)
		}
		// Dead member or sick query? Ask the member directly: a probe
		// that fails means the owner (or its server fabric) is gone and
		// the query deserves another member; a probe that answers means
		// the query itself is the problem.
		probeCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), p.probeTimeout)
		probeErr := m.backend.Ping(probeCtx)
		cancel()
		if probeErr == nil {
			return nil, fmt.Errorf("owner %d: %w", i, err)
		}
		p.markDown(i)
		mReroutes.Inc()
		lastErr = fmt.Errorf("owner %d: %w", i, err)
	}
	return nil, fmt.Errorf("gateway: all %d pool members failed; last: %w", len(p.members), lastErr)
}

// Probe pings every member once, reviving members that answer and
// downing members that do not. Serve runs it periodically; tests call
// it directly for deterministic health transitions.
func (p *Pool) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for i, m := range p.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, p.probeTimeout)
			defer cancel()
			if m.backend.Ping(probeCtx) == nil {
				p.markUp(i)
			} else {
				p.markDown(i)
			}
		}(i, m)
	}
	wg.Wait()
}
