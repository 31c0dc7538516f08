package prism

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"prism/internal/baseline"
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

// frontAnswer is a query answer as the front protocol carries it: the
// one form a library Result and a gateway reply can both be put in.
// Printed with %v (maps in key order) it is the answer's fingerprint.
type frontAnswer struct {
	Cells   []uint64
	Count   int
	Sums    map[string]map[uint64]uint64
	Counts  map[uint64]uint64
	Extreme map[uint64]uint64
	Global  uint64
}

func answerOfResult(r *ownerengine.Result) string {
	a := frontAnswer{Cells: r.Cells, Count: r.Count, Sums: r.Sums, Counts: r.Counts, Extreme: map[uint64]uint64{}}
	for cell, ext := range r.Extreme {
		a.Extreme[cell] = ext.Value
	}
	if r.Global != nil {
		a.Global = r.Global.Value
	}
	return fmt.Sprintf("%+v", a)
}

func answerOfReply(r *gateway.Response) string {
	a := frontAnswer{Cells: r.Cells, Count: r.Count, Sums: r.Sums, Counts: r.Counts, Extreme: r.Extreme}
	if r.Global != nil {
		a.Global = *r.Global
	}
	return fmt.Sprintf("%+v", a)
}

// plainAnswers computes the plaintext answer of every set, count and
// aggregation kind from the owners' loaded tuples (column "v").
func plainAnswers(sys *System, inter []uint64) map[OpKind]string {
	sets := make([][]uint64, sys.Owners())
	sum, cnt := map[uint64]uint64{}, map[uint64]uint64{}
	for j := range sets {
		d := sys.Owner(j).Engine().Data()
		sets[j] = d.Cells
		for i, c := range d.Cells {
			sum[c] += d.Aggs["v"][i]
			cnt[c]++
		}
	}
	union := baseline.PlaintextUnion(sets)
	slices.Sort(union)
	agg := func(cells []uint64, withCount bool) string {
		r := &ownerengine.Result{Cells: cells, Sums: map[string]map[uint64]uint64{"v": {}}}
		if withCount {
			r.Counts = map[uint64]uint64{}
		}
		for _, c := range cells {
			r.Sums["v"][c] = sum[c]
			if withCount {
				r.Counts[c] = cnt[c]
			}
		}
		return answerOfResult(r)
	}
	return map[OpKind]string{
		OpPSI:      answerOfResult(&ownerengine.Result{Cells: inter}),
		OpPSU:      answerOfResult(&ownerengine.Result{Cells: union}),
		OpPSICount: answerOfResult(&ownerengine.Result{Count: len(inter)}),
		OpPSUCount: answerOfResult(&ownerengine.Result{Count: len(union)}),
		OpPSISum:   agg(inter, false),
		OpPSIAvg:   agg(inter, true),
		OpPSUSum:   agg(union, false),
		OpPSUAvg:   agg(union, true),
	}
}

// kindCols is the column list a query of kind runs over in the parity
// tables: column "v" where the kind takes columns.
func kindCols(kind OpKind) []string {
	if f := kind.Family(); f == ownerengine.FamilyAgg || f == ownerengine.FamilyExtreme {
		return []string{"v"}
	}
	return nil
}

// directAnswers runs every kind of the kind table through the library,
// holds each answer against the plaintext oracle (internal/baseline sets
// and sums; orc for max/min/median) and returns the answers'
// fingerprints by kind name. No kind may leave a session behind.
func directAnswers(t *testing.T, sys *System, orc *extremeOracle) map[string]string {
	t.Helper()
	extremes := map[OpKind]protocol.ExtremeKind{
		OpPSIMax: protocol.KindMax, OpPSIMin: protocol.KindMin, OpPSIMedian: protocol.KindMedian,
	}
	plain := plainAnswers(sys, orc.cells)
	out := make(map[string]string)
	for _, name := range ownerengine.KindNames() {
		kind, _ := ownerengine.KindByName(name)
		direct := sys.execute(context.Background(), Request{Op: kind, Cols: kindCols(kind)})
		if direct.Err != nil {
			t.Fatalf("%s direct: %v", name, direct.Err)
		}
		out[name] = answerOfResult(direct.Result)
		if ext, ok := extremes[kind]; ok {
			orc.check(t, ext, direct.Extreme)
		} else if out[name] != plain[kind] {
			t.Errorf("%s direct = %s, plaintext %s", name, out[name], plain[kind])
		}
		assertNoSessions(t, sys)
	}
	return out
}

// TestGatewaySystemParity is the direct/gateway slice of the conformance
// matrix: every kind of the kind table, on 1 and 2 server groups over
// randomised data, must answer (a) through the library exactly as the
// plaintext oracle does, (b) through a gateway over the system's
// cohort-backed backends exactly as (a), and (c) through a gateway over a
// lone owner engine — what cmd/prism-gateway pools — exactly as (a) for
// the single-session kinds and with code "unsupported", the pool still
// at full strength, for max/min/median. No path may leave a session
// behind, nor may a max whose caller gives up mid-round.
func TestGatewaySystemParity(t *testing.T) {
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			sys, err := NewLocalSystem(extremeConfig(t, 4, groups, false))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			orc := loadPlanted(t, sys, plantedCells(sys, 5), int64(40+groups))
			direct := directAnswers(t, sys, orc)

			dial := func(cfg gateway.Config) (*gateway.Client, *gateway.Gateway) {
				addr, gw := startGateway(t, cfg)
				cl, err := gateway.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				return cl, gw
			}
			cohort, _ := dial(gateway.Config{Backends: sys.GatewayBackends()})
			lone, loneGW := dial(gateway.Config{Backends: []gateway.Backend{
				&gateway.EngineBackend{Owner: sys.Owner(1).Engine(), Table: "main", Verify: true},
			}})

			ctx := context.Background()
			for _, name := range ownerengine.KindNames() {
				kind, _ := ownerengine.KindByName(name)
				cols, want := kindCols(kind), direct[name]

				reply, err := cohort.Query(name, cols, "t0", 30*time.Second)
				if err != nil {
					t.Fatalf("%s through the cohort gateway: %v", name, err)
				}
				if got := answerOfReply(reply); got != want {
					t.Errorf("%s through the cohort gateway = %s, direct %s", name, got, want)
				}

				reply, err = lone.Query(name, cols, "t0", 30*time.Second)
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
					if got := answerOfReply(reply); got != want {
						t.Errorf("%s through a lone engine = %s, direct %s", name, got, want)
					}
				}
				assertNoSessions(t, sys)
			}

			// The caller gives up at the first claim: the backend retires
			// the round's sessions regardless.
			cctx, cancel := context.WithCancel(ctx)
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
