package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLoadShed is the typed backpressure error: the gateway refused a
// query instead of queueing it unboundedly. Every shed path wraps it,
// so callers branch with errors.Is(err, ErrLoadShed) and the front
// protocol maps it to Code "shed".
var ErrLoadShed = errors.New("gateway: load shed")

// shedError carries the shed reason for the per-reason metric and the
// error text while staying errors.Is-compatible with ErrLoadShed.
type shedError struct{ reason, detail string }

func (e *shedError) Error() string {
	return fmt.Sprintf("gateway: load shed (%s): %s", e.reason, e.detail)
}
func (e *shedError) Unwrap() error { return ErrLoadShed }

// ShedReason extracts the reason label of a load-shed error ("" for
// other errors).
func ShedReason(err error) string {
	var se *shedError
	if errors.As(err, &se) {
		return se.reason
	}
	return ""
}

// Admission is the gateway's admission controller: a token bucket per
// tenant over one shared bounded waiting queue.
//
// The decision is made synchronously at submit time with reservation
// semantics (the bucket advances immediately, the caller sleeps until
// its reserved token matures): a burst either gets a token now, joins
// the bounded queue with a known wait, or is shed on the spot. Nothing
// ever waits without a bound — a reservation whose wait would cross the
// query's deadline is shed immediately ("deadline") rather than queued
// to die, and the queue itself is capped ("queue-full"). That makes
// overload behaviour exact: at rate R, burst B and queue Q, a burst of
// N > B+Q requests admits B at once, queues the next Q, and sheds the
// remaining N−B−Q with typed ErrLoadShed errors.
type Admission struct {
	rate  float64 // tokens per second per tenant (<= 0 disables limiting)
	burst float64 // bucket capacity per tenant
	queue int     // max reservations waiting across all tenants

	mu      sync.Mutex
	buckets map[string]*bucket
	queued  int
	// now is the clock, swappable by tests for deterministic waits.
	now func() time.Time
}

type bucket struct {
	tokens float64   // may go negative: outstanding reservations
	last   time.Time // when tokens was last advanced
}

// NewAdmission builds an admission controller. rate <= 0 disables rate
// limiting entirely (every request is admitted at once); queue <= 0
// means no waiting — a request either gets a token now or is shed.
func NewAdmission(rate, burst float64, queue int) *Admission {
	if burst < 1 {
		burst = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Admission{
		rate:    rate,
		burst:   burst,
		queue:   queue,
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// QueueDepth reports how many admitted requests are currently waiting
// for their reserved token (the prism_gateway_queue_depth gauge).
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// reserve makes the synchronous admission decision for one request:
// admit now (wait 0), admit after wait, or shed. It never blocks.
func (a *Admission) reserve(tenant string, deadline time.Time) (time.Duration, error) {
	if a.rate <= 0 {
		return 0, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	b := a.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[tenant] = b
	}
	// Refill up to capacity, then take one token; a negative balance is
	// the queue of reservations already handed out for this tenant.
	b.tokens += now.Sub(b.last).Seconds() * a.rate
	b.last = now
	if b.tokens > a.burst {
		b.tokens = a.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, nil
	}
	wait := time.Duration((1 - b.tokens) / a.rate * float64(time.Second))
	if now.Add(wait).After(deadline) {
		return 0, &shedError{reason: "deadline", detail: fmt.Sprintf(
			"tenant %q would wait %v for a token, past the query deadline", tenant, wait.Round(time.Millisecond))}
	}
	if a.queued >= a.queue {
		return 0, &shedError{reason: "queue-full", detail: fmt.Sprintf(
			"tenant %q rate-limited and the waiting queue is full (%d waiting)", tenant, a.queued)}
	}
	b.tokens--
	a.queued++
	mQueued.Inc()
	mQueueDepth.Set(int64(a.queued))
	return wait, nil
}

// await sits out an admitted reservation's queued wait (none when wait
// ≤ 0) and retires it from the queue. A caller that goes away mid-wait
// gets ctx's error and its token back, so the slot serves the next
// arrival rather than evaporating.
func (a *Admission) await(ctx context.Context, tenant string, wait time.Duration) error {
	if wait <= 0 {
		return nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	var err error
	select {
	case <-timer.C:
	case <-ctx.Done():
		err = ctx.Err()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queued--
	mQueueDepth.Set(int64(a.queued))
	if b := a.buckets[tenant]; err != nil && b != nil {
		b.tokens = min(b.tokens+1, a.burst)
	}
	return err
}
