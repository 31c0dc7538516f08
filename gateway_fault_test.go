package prism

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"prism/internal/gateway"
	"prism/internal/ownerengine"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// startGateway serves a gateway on a loopback listener, torn down when
// the test ends.
func startGateway(t *testing.T, cfg gateway.Config) (string, *gateway.Gateway) {
	t.Helper()
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("gateway Serve: %v", err)
		}
	})
	return ln.Addr().String(), gw
}

// startSystemGateway serves a gateway over sys's cohort-backed backends.
func startSystemGateway(t *testing.T, sys *System, cfg gateway.Config) string {
	t.Helper()
	cfg.Backends = sys.GatewayBackends()
	addr, _ := startGateway(t, cfg)
	return addr
}

// TestGatewayLoneEngineAndCancellation: a gateway over a lone owner engine
// — what cmd/prism-gateway pools — answers every single-session kind as
// the plaintext oracle does and refuses max/min/median with code
// "unsupported", the pool still at full strength; and a max run through
// a cohort-backed backend whose caller gives up at the first claim
// retires the round's sessions regardless. On one server group and two.
// (The cohort-backed gateway path of every kind is TestConformance's.)
func TestGatewayLoneEngineAndCancellation(t *testing.T) {
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			sys := shape{owners: 4, groups: groups, b: 256}.system(t)
			orc := loadPlanted(t, sys, plantedCells(sys, 5), int64(40+groups))
			want := orc.answers()
			addr, loneGW := startGateway(t, gateway.Config{Backends: []gateway.Backend{
				&gateway.EngineBackend{Owner: sys.Owner(1).Engine(), Table: "main", Verify: true},
			}})
			lone, err := gateway.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer lone.Close()
			for _, name := range ownerengine.KindNames() {
				kind, _ := ownerengine.KindByName(name)
				reply, err := lone.Query(name, kindCols(kind), "t0", 30*time.Second)
				switch {
				case kind.Family() == ownerengine.FamilyExtreme:
					if err == nil || reply == nil || reply.Code != gateway.CodeUnsupported {
						t.Errorf("%s through a lone engine: reply %+v, err %v, want code %q", name, reply, err, gateway.CodeUnsupported)
					}
					if h := loneGW.Pool().Healthy(); h != loneGW.Pool().Size() {
						t.Errorf("%s refused as unsupported left %d of %d pool members healthy", name, h, loneGW.Pool().Size())
					}
				case err != nil:
					t.Errorf("%s through a lone engine: %v", name, err)
				default:
					if got := answerOfReply(reply); got != want[kind] {
						t.Errorf("%s through a lone engine = %s, plaintext %s", name, got, want[kind])
					}
				}
				assertNoSessions(t, sys)
			}

			// The caller gives up at the first claim: the backend retires
			// the round's sessions regardless.
			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sys.interceptGroupServer(groups-1, 0, func(inner transport.Handler) transport.Handler {
				return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
					if _, ok := req.(protocol.ClaimSubmitRequest); ok {
						cancel()
					}
					return inner.Handle(ctx, req)
				})
			})
			if _, err := sys.Owner(2).GatewayBackend().Exec(cctx, gateway.Query{Kind: OpPSIMax, Cols: []string{"v"}}); err == nil {
				t.Error("max survived its caller's cancellation")
			}
			sys.restoreGroupServer(groups-1, 0)
			assertNoSessions(t, sys)
		})
	}
}

// TestGatewayMidQueryDisconnect is the session-cleanup fault injection:
// front clients vanish at staggered points inside in-flight extreme
// queries — the only operator class that opens announcer and server
// query sessions — and every session must still be retired. The root
// extreme flow ends its query under a cancellation-immune context
// precisely so an abandoned gateway query cannot leak announcer state;
// this test holds that end to end through the front tier.
func TestGatewayMidQueryDisconnect(t *testing.T) {
	sys := concSystem(t)
	addr := startSystemGateway(t, sys, gateway.Config{DefaultTimeout: 10 * time.Second})

	// Baseline: one clean max query, timed, to scale the disconnect
	// points to this machine.
	cl, err := gateway.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cl.Query("max", []string{"v"}, "t0", 10*time.Second); err != nil {
		t.Fatalf("baseline max: %v", err)
	}
	lat := time.Since(start)
	cl.Close()

	// Disconnect mid-flight at points spread across the query's
	// lifetime (including before execution starts).
	delays := []time.Duration{0, lat / 8, lat / 4, lat / 2, 3 * lat / 4}
	for i, d := range delays {
		cl, err := gateway.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Submit("max", []string{"v"}, fmt.Sprintf("t%d", i), 10*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		time.Sleep(d)
		cl.Close() // the ticket dies with the connection; the query is cancelled
	}

	// Whatever mix of interrupted and completed queries that produced,
	// every server and announcer session must drain.
	deadline := time.Now().Add(15 * time.Second)
	for {
		live := sys.ann.Sessions()
		for _, grp := range sys.servers {
			for _, e := range grp {
				live += e.Sessions()
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d query sessions still live 15s after all clients disconnected", live)
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertNoSessions(t, sys)
}
