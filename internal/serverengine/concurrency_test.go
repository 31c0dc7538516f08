package serverengine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// recordingCaller counts announcer forwards without a real announcer.
type recordingCaller struct {
	mu    sync.Mutex
	calls map[string]int // qid → forward count
}

func (c *recordingCaller) Call(_ context.Context, addr string, req any) (any, error) {
	if r, ok := req.(protocol.AnnounceRequest); ok {
		c.mu.Lock()
		if c.calls == nil {
			c.calls = make(map[string]int)
		}
		c.calls[r.QueryID]++
		c.mu.Unlock()
		return protocol.AnnounceReply{Have: 1}, nil
	}
	return nil, fmt.Errorf("unexpected call to %q: %T", addr, req)
}

func (c *recordingCaller) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	reply, err := c.Call(ctx, addr, req)
	return reply, func() {}, err
}

// TestConcurrentPSIStable floods one engine with PSI requests from many
// goroutines: every reply must be identical to the serial answer.
func TestConcurrentPSIStable(t *testing.T) {
	e := New(paperView(0), Options{Threads: 3})
	storePaperShares(t, e, 0)
	serial, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "diseases", QueryID: "serial"})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.(protocol.PSIReply).Out

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := e.Handle(context.Background(), protocol.PSIRequest{
				Table: "diseases", QueryID: fmt.Sprintf("q%d", i),
			})
			if err != nil {
				errs <- err
				return
			}
			if got := reply.(protocol.PSIReply).Out; !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("query %d: out = %v, want %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentStoreThreadsQuery exercises the write paths concurrently
// with queries: storing a second table and resizing the worker pool must
// never disturb in-flight queries on the first table.
func TestConcurrentStoreThreadsQuery(t *testing.T) {
	e := New(paperView(0), Options{Threads: 2})
	storePaperShares(t, e, 0)
	serial, err := e.Handle(context.Background(), protocol.PSIRequest{Table: "diseases", QueryID: "serial"})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.(protocol.PSIReply).Out

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for i := 0; i < 32; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			reply, err := e.Handle(context.Background(), protocol.PSIRequest{
				Table: "diseases", QueryID: fmt.Sprintf("c%d", i),
			})
			if err != nil {
				errs <- err
				return
			}
			if got := reply.(protocol.PSIReply).Out; !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("query %d diverged under churn: %v != %v", i, got, want)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			spec := protocol.TableSpec{Name: fmt.Sprintf("scratch-%d", i%4), B: 3, Plain: true}
			_, err := e.Handle(context.Background(), protocol.StoreRequest{
				Owner: i % 3, Spec: spec, ChiAdd: []uint16{1, 2, 3},
			})
			if err != nil {
				errs <- err
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			e.SetThreads(1 + i%5)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExtremeSessionLifecycle runs many interleaved extreme-submission
// rounds: each qid must forward to the announcer exactly once, sessions
// stay isolated per qid, and QueryDone retires them.
func TestExtremeSessionLifecycle(t *testing.T) {
	caller := &recordingCaller{}
	e := New(paperView(0), Options{Threads: 2, AnnouncerAddr: "announcer", Caller: caller})
	storePaperShares(t, e, 0)

	const qids = 16
	var wg sync.WaitGroup
	for q := 0; q < qids; q++ {
		for owner := 0; owner < 3; owner++ {
			wg.Add(1)
			go func(q, owner int) {
				defer wg.Done()
				_, err := e.Handle(context.Background(), protocol.ExtremeSubmitRequest{
					QueryID: fmt.Sprintf("ext-%d", q),
					Kind:    protocol.KindMax,
					Owner:   owner,
					VShares: [][]byte{{byte(q), byte(owner)}},
				})
				if err != nil {
					t.Error(err)
				}
			}(q, owner)
		}
	}
	wg.Wait()

	caller.mu.Lock()
	for q := 0; q < qids; q++ {
		if n := caller.calls[fmt.Sprintf("ext-%d", q)]; n != 1 {
			t.Errorf("qid ext-%d forwarded %d times, want exactly 1", q, n)
		}
	}
	caller.mu.Unlock()
	if n := e.Sessions(); n != qids {
		t.Fatalf("sessions = %d, want %d", n, qids)
	}
	for q := 0; q < qids; q++ {
		if _, err := e.Handle(context.Background(), protocol.QueryDoneRequest{QueryID: fmt.Sprintf("ext-%d", q)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Sessions(); n != 0 {
		t.Fatalf("sessions = %d after QueryDone, want 0", n)
	}
	// Fetching a retired qid fails loudly rather than resurrecting state.
	if _, err := e.Handle(context.Background(), protocol.ExtremeFetchRequest{QueryID: "ext-0"}); err == nil {
		t.Error("fetch on a retired session succeeded")
	}
}

// TestQueryDoneUnknownQIDIsNoop ensures cleanup of an unknown qid is
// harmless (lost or duplicated cleanups must not error).
func TestQueryDoneUnknownQIDIsNoop(t *testing.T) {
	e := New(paperView(0), Options{Threads: 1})
	if _, err := e.Handle(context.Background(), protocol.QueryDoneRequest{QueryID: "ghost"}); err != nil {
		t.Fatal(err)
	}
}

var _ transport.Caller = (*recordingCaller)(nil)
