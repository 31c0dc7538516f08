package prism

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// interceptGroupServer rewires group g's server phi through a wrapper
// handler. Tests use it to simulate malicious servers (reply tampering,
// skipped cells, fake injections), dead or slow ones, and to count what
// each server receives. Declared here, in a test file, so no production
// code can call it.
func (s *System) interceptGroupServer(g, phi int, wrap func(transport.Handler) transport.Handler) {
	s.network.Register(serverAddr(g, phi), wrap(s.servers[g][phi]))
}

// restoreGroupServer undoes interceptGroupServer.
func (s *System) restoreGroupServer(g, phi int) {
	s.network.Register(serverAddr(g, phi), s.servers[g][phi])
}

// down simulates a crashed server: every call fails.
func down() func(transport.Handler) transport.Handler {
	return func(transport.Handler) transport.Handler {
		return transport.HandlerFunc(func(context.Context, any) (any, error) {
			return nil, errors.New("connection refused")
		})
	}
}

// slowOnce drops only the first matching request kind.
type reqMatcher func(req any) bool

func failOn(match reqMatcher) func(transport.Handler) transport.Handler {
	return func(inner transport.Handler) transport.Handler {
		return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
			if match(req) {
				return nil, errors.New("injected failure")
			}
			return inner.Handle(ctx, req)
		})
	}
}

func TestServerDownFailsCleanly(t *testing.T) {
	sys := hospitalSystem(t, false)
	sys.interceptGroupServer(0, 1, down())
	defer sys.restoreGroupServer(0, 1)
	if _, err := sys.PSI(context.Background()); err == nil {
		t.Fatal("PSI succeeded with a dead server")
	}
	if _, err := sys.PSU(context.Background()); err == nil {
		t.Fatal("PSU succeeded with a dead server")
	}
	if _, err := sys.PSISum(context.Background(), "cost"); err == nil {
		t.Fatal("sum succeeded with a dead server")
	}
	// Recovery: once the server is back, queries work again.
	sys.restoreGroupServer(0, 1)
	if _, err := sys.PSI(context.Background()); err != nil {
		t.Fatalf("PSI broken after recovery: %v", err)
	}
}

func TestShamirServerDownOnlyBreaksAggregation(t *testing.T) {
	sys := hospitalSystem(t, false)
	// Server 2 holds only Shamir columns: set ops must survive its death.
	sys.interceptGroupServer(0, 2, down())
	defer sys.restoreGroupServer(0, 2)
	if _, err := sys.PSI(context.Background()); err != nil {
		t.Fatalf("PSI needs only the additive servers: %v", err)
	}
	if _, err := sys.PSU(context.Background()); err != nil {
		t.Fatalf("PSU needs only the additive servers: %v", err)
	}
	if _, err := sys.PSICount(context.Background()); err != nil {
		t.Fatalf("count needs only the additive servers: %v", err)
	}
	if _, err := sys.PSISum(context.Background(), "cost"); err == nil {
		t.Fatal("aggregation succeeded without the third Shamir server")
	}
}

func TestContextCancellationPropagates(t *testing.T) {
	sys := hospitalSystem(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.PSI(ctx); err == nil {
		t.Fatal("cancelled context did not stop the query")
	}
}

func TestAggregationFailureMidQuery(t *testing.T) {
	sys := hospitalSystem(t, false)
	// Round 1 (PSI) succeeds; round 2 (Agg) fails on one server.
	sys.interceptGroupServer(0, 0, failOn(func(req any) bool {
		_, isAgg := req.(protocol.AggRequest)
		return isAgg
	}))
	defer sys.restoreGroupServer(0, 0)
	_, err := sys.PSISum(context.Background(), "cost")
	if err == nil {
		t.Fatal("sum succeeded despite round-2 failure")
	}
}

// TestDeadGroupErrorTagged: when one group's server dies, cross-domain
// queries must fail with an error naming the dead group — and updates
// that touch only healthy groups must keep working, since the router
// only contacts groups owning the changed cells.
func TestDeadGroupErrorTagged(t *testing.T) {
	sys := shape{owners: 3, groups: 3, b: 128}.system(t)
	loadPlanted(t, sys, plantedCells(sys, 5), 42)
	ctx := context.Background()

	sys.interceptGroupServer(1, 0, down())
	defer sys.restoreGroupServer(1, 0)

	for _, q := range []struct {
		name string
		run  func() error
	}{
		{"PSI", func() error { _, err := sys.PSI(ctx); return err }},
		{"PSICount", func() error { _, err := sys.PSICount(ctx); return err }},
		{"PSISum", func() error { _, err := sys.PSISum(ctx, "v"); return err }},
	} {
		err := q.run()
		if err == nil {
			t.Fatalf("%s succeeded with group 1's server 0 dead", q.name)
		}
		if !strings.Contains(err.Error(), "group 1:") {
			t.Fatalf("%s error %q does not name the dead group", q.name, err)
		}
	}

	// Cell 1 lives in group 0 of the 43/43/42 split; an update confined
	// to it never touches the dead group.
	st, err := sys.Owner(0).UpdateCells(ctx, []uint64{1}, map[string][]uint64{"v": {9}}, nil, nil)
	if err != nil {
		t.Fatalf("update confined to a healthy group failed: %v", err)
	}
	if !st.FastPath {
		t.Error("append-only update skipped the fast path")
	}

	// Once the server is back, cross-domain queries work again.
	sys.restoreGroupServer(1, 0)
	if _, err := sys.PSI(ctx); err != nil {
		t.Fatalf("PSI broken after the group recovered: %v", err)
	}
}

// TestShardedCancellationMidStream cancels a query while its window
// stream is in flight: the query must return promptly with a context
// error, the system must stay healthy for subsequent queries, and no
// session state may linger.
func TestShardedCancellationMidStream(t *testing.T) {
	sys := shape{owners: 4, shard: 8, b: 64}.system(t) // 8 windows
	loadPlanted(t, sys, plantedCells(sys, 5), 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hit := make(chan struct{}, 1)
	sys.interceptGroupServer(0, 0, func(h transport.Handler) transport.Handler {
		return transport.HandlerFunc(func(hctx context.Context, req any) (any, error) {
			if r, ok := req.(protocol.PSIRequest); ok && r.Shard.Offset > 0 {
				// A mid-stream window: park until the query is cancelled.
				select {
				case hit <- struct{}{}:
				default:
				}
				<-hctx.Done()
				return nil, hctx.Err()
			}
			return h.Handle(hctx, req)
		})
	})
	go func() {
		<-hit
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := sys.PSI(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled windowed PSI succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled windowed PSI returned %v, want context.Canceled in the chain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled windowed PSI did not return")
	}

	// The fabric must be healthy again once the interceptor is removed.
	sys.restoreGroupServer(0, 0)
	if _, err := sys.PSI(context.Background()); err != nil {
		t.Fatalf("PSI after cancellation: %v", err)
	}
	assertNoSessions(t, sys)
}
