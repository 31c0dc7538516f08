package prism

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"prism/internal/ownerengine"
)

// concSystem builds a 4-owner deployment sized for concurrency tests on
// the matrix fixture: a 64-cell integer domain, two aggregation columns,
// verification on, and the wire round-trip forced so concurrent
// queries also exercise message encoding. Cells 3, 5 and 7 are common to
// every owner.
func concSystem(t testing.TB) *System {
	t.Helper()
	cfg := shape{owners: 4, b: 64}.config(t)
	cfg.AggColumns = []string{"v", "w"}
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadConcData(t, sys)
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// loadConcData installs the 4-owner concurrency-test dataset (cells 3, 5
// and 7 common to every owner, plus owner-specific noise).
func loadConcData(t testing.TB, sys *System) {
	t.Helper()
	for j := 0; j < 4; j++ {
		cells := []uint64{3, 5, 7} // planted intersection
		for k := 0; k < 6; k++ {
			cells = append(cells, uint64((j*11+k*7)%64)) // owner-specific noise
		}
		vs := make([]uint64, len(cells))
		ws := make([]uint64, len(cells))
		for i := range cells {
			vs[i] = uint64(10 + j*3 + i)
			ws[i] = uint64(100 + j*7 + i*2)
		}
		if err := sys.Owner(j).LoadCells(cells, map[string][]uint64{"v": vs, "w": ws}); err != nil {
			t.Fatal(err)
		}
	}
}

// mixedOps is the operator mix the stress tests rotate through.
var mixedOps = []Request{
	{Op: OpPSI},
	{Op: OpPSU},
	{Op: OpPSICount},
	{Op: OpPSUCount},
	{Op: OpPSISum, Cols: []string{"v"}},
	{Op: OpPSISum, Cols: []string{"v", "w"}},
	{Op: OpPSIAvg, Cols: []string{"w"}},
	{Op: OpPSIMax, Cols: []string{"v"}},
	{Op: OpPSIMin, Cols: []string{"w"}},
	{Op: OpPSIMedian, Cols: []string{"v"}},
}

// fingerprint is a response's answer without its stats and its global
// extreme's cell (equal extremes tie on random masks): what serial and
// concurrent runs of one query must agree on.
func fingerprint(t testing.TB, r *Response) string {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%v failed: %v", r.Op, r.Err)
	}
	res := *r.Result
	res.Stats, res.Global, res.GlobalCell = ownerengine.QueryStats{}, nil, 0
	return fmt.Sprintf("%+v", res)
}

// serialBaseline executes each distinct op once, serially, and returns
// the canonical fingerprint per op. Results are owner-independent, so
// one serial answer is THE answer.
func serialBaseline(t testing.TB, sys *System) map[string]string {
	t.Helper()
	base := make(map[string]string, len(mixedOps))
	for _, req := range mixedOps {
		resp := sys.execute(context.Background(), req)
		key := fmt.Sprintf("%v/%v", req.Op, req.Cols)
		base[key] = fingerprint(t, resp)
	}
	return base
}

// TestConcurrentMixedQueriesMatchSerial is the headline stress test: 40
// concurrent queries of 10 mixed operator shapes, driven round-robin by
// 4 distinct owners, must return byte-identical results to serial
// execution.
func TestConcurrentMixedQueriesMatchSerial(t *testing.T) {
	sys := concSystem(t)
	base := serialBaseline(t, sys)

	const rounds = 4 // 4 × len(mixedOps) = 40 concurrent queries
	var reqs []Request
	for r := 0; r < rounds; r++ {
		reqs = append(reqs, mixedOps...)
	}
	resps := sys.QueryBatch(context.Background(), reqs)

	owners := make(map[int]bool)
	for i, resp := range resps {
		key := fmt.Sprintf("%v/%v", reqs[i].Op, reqs[i].Cols)
		if got := fingerprint(t, resp); got != base[key] {
			t.Errorf("request %d (%s): concurrent result diverged\n  serial:     %s\n  concurrent: %s",
				i, key, base[key], got)
		}
		owners[resp.Owner] = true
	}
	if len(owners) < 3 {
		t.Errorf("queries were driven by %d distinct owners, want >= 3 (round-robin broken?)", len(owners))
	}
}

// TestQueryAsyncPinnedOwner verifies that every owner can issue queries
// directly and that pinned routing reaches the requested owner.
func TestQueryAsyncPinnedOwner(t *testing.T) {
	sys := concSystem(t)
	want := fingerprint(t, sys.execute(context.Background(), Request{Op: OpPSI}))
	for j := 0; j < sys.Owners(); j++ {
		resp := sys.QueryAsync(context.Background(), Request{Op: OpPSI, PinOwner: true, OwnerIdx: j}).Wait()
		if resp.Owner != j {
			t.Errorf("pinned to owner %d, driven by %d", j, resp.Owner)
		}
		if got := fingerprint(t, resp); got != want {
			t.Errorf("owner %d result diverged: %s != %s", j, got, want)
		}
	}
	// Out-of-range pins must surface as error responses — never panics —
	// and, like every error path that reached no owner, report Owner -1.
	for _, idx := range []int{99, -1, sys.Owners()} {
		resp := sys.QueryAsync(context.Background(), Request{Op: OpPSI, PinOwner: true, OwnerIdx: idx}).Wait()
		if resp.Err == nil {
			t.Errorf("out-of-range pinned owner %d accepted", idx)
		}
		if resp.Owner != -1 {
			t.Errorf("out-of-range pin %d: Owner = %d, want -1", idx, resp.Owner)
		}
	}
}

// TestSchedulerColumnArity: the scheduler rejects requests whose column
// list does not fit the operator instead of silently truncating it (an
// extreme query with two columns used to answer for the first only).
func TestSchedulerColumnArity(t *testing.T) {
	sys := concSystem(t)
	bad := []Request{
		{Op: OpPSI, Cols: []string{"v"}},           // set ops take none
		{Op: OpPSICount, Cols: []string{"v", "w"}}, // count ops take none
		{Op: OpPSISum},                              // aggregation needs >= 1
		{Op: OpPSUAvg},                              //
		{Op: OpPSIMax},                              // extremes take exactly 1
		{Op: OpPSIMin, Cols: []string{"v", "w"}},    //
		{Op: OpPSIMedian, Cols: []string{"v", "w"}}, //
		{Op: OpKind(99), Cols: []string{"v"}},       // unknown operator
	}
	for _, req := range bad {
		resp := sys.QueryAsync(context.Background(), req).Wait()
		if resp.Err == nil {
			t.Errorf("%v with cols %v accepted", req.Op, req.Cols)
		}
		if resp.Owner != -1 {
			t.Errorf("%v validation failure: Owner = %d, want -1", req.Op, resp.Owner)
		}
	}
	// The well-formed shapes still run.
	good := []Request{
		{Op: OpPSI},
		{Op: OpPSIMax, Cols: []string{"v"}},
		{Op: OpPSISum, Cols: []string{"v"}},
	}
	for _, req := range good {
		if resp := sys.QueryAsync(context.Background(), req).Wait(); resp.Err != nil {
			t.Errorf("%v with cols %v rejected: %v", req.Op, req.Cols, resp.Err)
		}
	}
}

// TestSetServerThreadsDuringFlight hammers SetServerThreads while a
// batch is in flight: no race, no result change.
func TestSetServerThreadsDuringFlight(t *testing.T) {
	sys := concSystem(t)
	base := serialBaseline(t, sys)

	var reqs []Request
	for r := 0; r < 4; r++ {
		reqs = append(reqs, mixedOps...)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.SetServerThreads(1 + i%5)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	resps := sys.QueryBatch(context.Background(), reqs)
	close(stop)
	wg.Wait()
	for i, resp := range resps {
		key := fmt.Sprintf("%v/%v", reqs[i].Op, reqs[i].Cols)
		if got := fingerprint(t, resp); got != base[key] {
			t.Errorf("request %d (%s) diverged under thread churn", i, key)
		}
	}
}

// TestQueryBatchCancellation verifies a dead context drains the batch
// with context errors instead of hanging.
func TestQueryBatchCancellation(t *testing.T) {
	sys := concSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan []*Response, 1)
	go func() { done <- sys.QueryBatch(ctx, append([]Request(nil), mixedOps...)) }()
	select {
	case resps := <-done:
		for _, r := range resps {
			if r.Err == nil {
				t.Error("query succeeded under a cancelled context (acceptable only if it won the race); Err expected")
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not drain")
	}
}

// TestLimiterBoundsAndResize unit-tests the scheduler's limiter: the
// in-flight count never exceeds the bound and a blocked acquire honours
// its context.
func TestLimiterBoundsAndResize(t *testing.T) {
	l := newLimiter(2)
	var mu sync.Mutex
	inflight, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inflight--
			mu.Unlock()
			l.release()
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Errorf("peak in-flight %d exceeds limit 2", peak)
	}

	// A blocked acquire honours context cancellation.
	tiny := newLimiter(1)
	if err := tiny.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := tiny.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked acquire returned %v, want deadline exceeded", err)
	}
	tiny.release()
}

// TestServerSessionsRetired asserts per-query session state is cleaned
// up on ALL engines once queries finish — sustained traffic must not
// accumulate qid scratch on any of the three servers or the announcer
// (the Shamir server used to be skipped by the cleanup loop, leaking
// its sessions unboundedly).
func TestServerSessionsRetired(t *testing.T) {
	sys := concSystem(t)
	var reqs []Request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, mixedOps...) // full mixed concurrent workload
	}
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{Op: OpPSIMax, Cols: []string{"v"}},
			Request{Op: OpPSIMedian, Cols: []string{"w"}},
			Request{Op: OpPSIMin, Cols: []string{"v"}})
	}
	for _, r := range sys.QueryBatch(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	assertNoSessions(t, sys)
}
