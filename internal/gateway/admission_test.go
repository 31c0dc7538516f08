package gateway

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestAdmissionBurstExact pins the reservation semantics down to exact
// counts: at rate R (burst R) with queue Q, a burst of 3·(R+Q)
// simultaneous requests admits exactly R immediately, queues exactly Q
// with bounded waits, and sheds the remaining 3·(R+Q)−R−Q with typed
// ErrLoadShed errors. The clock is frozen so no tokens refill
// mid-burst.
func TestAdmissionBurstExact(t *testing.T) {
	const (
		rate  = 100.0
		queue = 20
	)
	a := NewAdmission(rate, rate, queue)
	fixed := time.Now()
	a.now = func() time.Time { return fixed }

	total := 3 * (int(rate) + queue)
	deadline := fixed.Add(time.Hour)
	var immediate, queued, shed int
	for i := 0; i < total; i++ {
		wait, err := a.reserve("tenant", deadline)
		switch {
		case err == nil && wait == 0:
			immediate++
		case err == nil:
			queued++
			if max := time.Duration(float64(queue)/rate*float64(time.Second)) + time.Second; wait > max {
				t.Errorf("request %d: queued wait %v exceeds the bound %v", i, wait, max)
			}
		case errors.Is(err, ErrLoadShed):
			shed++
			if ShedReason(err) != "queue-full" {
				t.Errorf("request %d: shed reason %q, want queue-full", i, ShedReason(err))
			}
		default:
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if immediate != int(rate) {
		t.Errorf("immediate admits = %d, want exactly %d (the burst)", immediate, int(rate))
	}
	if queued != queue {
		t.Errorf("queued = %d, want exactly %d", queued, queue)
	}
	if want := total - int(rate) - queue; shed != want {
		t.Errorf("shed = %d, want exactly %d", shed, want)
	}
	if got := a.QueueDepth(); got != queue {
		t.Errorf("QueueDepth = %d, want %d", got, queue)
	}
}

// TestAdmissionDeadlineShed: a reservation whose queued wait would
// cross the query's deadline is shed on the spot ("deadline"), not
// queued to die.
func TestAdmissionDeadlineShed(t *testing.T) {
	a := NewAdmission(10, 1, 100)
	fixed := time.Now()
	a.now = func() time.Time { return fixed }

	if _, err := a.reserve("t", fixed.Add(time.Hour)); err != nil {
		t.Fatalf("first reservation: %v", err)
	}
	// The bucket is empty; the next token matures in 100ms — past a
	// 10ms deadline.
	_, err := a.reserve("t", fixed.Add(10*time.Millisecond))
	if !errors.Is(err, ErrLoadShed) || ShedReason(err) != "deadline" {
		t.Fatalf("err = %v (reason %q), want a deadline shed", err, ShedReason(err))
	}
	if a.QueueDepth() != 0 {
		t.Errorf("QueueDepth = %d after a deadline shed, want 0", a.QueueDepth())
	}
}

func TestAdmissionDisabled(t *testing.T) {
	a := NewAdmission(0, 0, 0)
	for i := 0; i < 1000; i++ {
		wait, err := acquire(context.Background(), a, "t")
		if err != nil || wait != 0 {
			t.Fatalf("request %d: (%v, %v), want immediate admit", i, wait, err)
		}
	}
}

func TestAdmissionTenantsIsolated(t *testing.T) {
	a := NewAdmission(1, 1, 0)
	fixed := time.Now()
	a.now = func() time.Time { return fixed }
	deadline := fixed.Add(time.Hour)
	if _, err := a.reserve("a", deadline); err != nil {
		t.Fatalf("tenant a: %v", err)
	}
	if _, err := a.reserve("a", deadline); !errors.Is(err, ErrLoadShed) {
		t.Fatalf("tenant a second request: %v, want shed", err)
	}
	// Tenant a exhausting its bucket must not touch tenant b's.
	if _, err := a.reserve("b", deadline); err != nil {
		t.Fatalf("tenant b: %v", err)
	}
}

// acquire admits one request as the gateway does: the reservation at
// submit time, then its bounded wait.
func acquire(ctx context.Context, a *Admission, tenant string) (time.Duration, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = a.now().Add(time.Hour) // far: no deadline sheds nothing
	}
	wait, err := a.reserve(tenant, deadline)
	if err != nil {
		return 0, err
	}
	return wait, a.await(ctx, tenant, wait)
}

// TestAcquireBurstNoLeaks runs the 3·(R+Q) burst through the blocking
// reserve-and-await path with full concurrency: every admitted request completes
// its bounded wait, every excess request sheds, an abandoned
// reservation refunds, and no goroutines survive the burst.
func TestAcquireBurstNoLeaks(t *testing.T) {
	const (
		rate  = 200.0
		queue = 30
	)
	before := runtime.NumGoroutine()
	a := NewAdmission(rate, rate, queue)

	total := 3 * (int(rate) + queue)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var (
		wg                      sync.WaitGroup
		mu                      sync.Mutex
		admitted, queued, sheds int
	)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait, err := acquire(ctx, a, "tenant")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && wait == 0:
				admitted++
			case err == nil:
				queued++
			case errors.Is(err, ErrLoadShed):
				sheds++
			default:
				t.Errorf("acquire: %v", err)
			}
		}()
	}
	wg.Wait()
	// The goroutines race each other into the bucket, so exact counts
	// belong to the frozen-clock test; the structural properties must
	// hold regardless of interleaving.
	if sheds == 0 {
		t.Error("burst of 3·(R+Q) shed nothing")
	}
	if admitted < int(rate) {
		t.Errorf("admitted %d immediately, want at least the burst %d", admitted, int(rate))
	}
	// More than Q requests can pass THROUGH the queue as early waits
	// mature and free slots (the frozen-clock test above pins the
	// simultaneous bound); what must hold here is that nothing waited
	// unboundedly and everything was accounted for.
	if admitted+queued+sheds != total {
		t.Errorf("admitted %d + queued %d + shed %d != offered %d", admitted, queued, sheds, total)
	}
	if d := a.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth = %d after the burst drained, want 0", d)
	}
	deadlineGoroutines(t, before)
}

// TestAcquireCancelRefunds: a caller that goes away mid-wait gets
// ctx.Err back, its queue slot releases and its token refunds.
func TestAcquireCancelRefunds(t *testing.T) {
	a := NewAdmission(1, 1, 10)
	if _, err := acquire(context.Background(), a, "t"); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := acquire(ctx, a, "t")
		errc <- err
	}()
	// Wait for the acquire to park in its queued wait, then abandon it.
	for i := 0; a.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned acquire returned %v, want context.Canceled", err)
	}
	if d := a.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth = %d after abandonment, want 0", d)
	}
}

// deadlineGoroutines polls until the goroutine count returns to (near)
// its baseline — admission must not leak timers or waiters.
func deadlineGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines = %d, baseline %d: burst leaked goroutines", runtime.NumGoroutine(), baseline)
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
