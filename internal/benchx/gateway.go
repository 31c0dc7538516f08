package benchx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/gateway"
	"prism/internal/ownerengine"
	"prism/internal/report"
)

// gatewayMix is the query mix every front client cycles through: the
// single-session operators, which keep the per-query server work small
// next to the front tier's own.
var gatewayMix = []gateway.Query{
	{Kind: ownerengine.OpPSICount},
	{Kind: ownerengine.OpPSI},
	{Kind: ownerengine.OpPSISum, Cols: []string{"DT"}},
}

// gatewayScaleDomain caps the backend domain: this experiment measures
// the front tier (connection handling, framing, admission, pool
// routing), so the per-query server compute is kept deliberately small
// and constant across client counts.
const gatewayScaleDomain = 16384

// GatewayScale measures the stateless front tier: sustained
// queries/sec and latency percentiles at increasing concurrent
// front-protocol client counts (sc.GatewayClients, up to 10k at paper
// scale) against the direct-owner baseline, with every gateway answer
// fingerprint-checked against the direct path. A second table drives
// 2× the admission capacity through a rate-limited gateway and
// verifies overload surfaces as typed load-shed errors — bounded
// latency, no hangs.
func GatewayScale(ctx context.Context, sc Scale) ([]*report.Table, error) {
	domain := sc.Domains[0]
	if domain > gatewayScaleDomain {
		domain = gatewayScaleDomain
	}
	clients := sc.GatewayClients
	if len(clients) == 0 {
		clients = []int{250, 1000}
	}
	const qpc = 2 // queries per front client

	sys, _, _, err := Build(SystemSpec{
		Owners:  sc.Owners,
		Domain:  domain,
		Threads: 1,
		Seed:    "gatewayscale",
	})
	if err != nil {
		return nil, err
	}

	// Both paths run the same backends: directly, and behind the front tier.
	backends := sys.GatewayBackends()
	want, err := directFingerprints(ctx, backends[0])
	if err != nil {
		return nil, err
	}

	tb := report.New(
		fmt.Sprintf("Gateway scale — %d-owner pool, %s-cell domain, %d queries per client, mix %s",
			sc.Owners, human(domain), qpc, gatewayMixNames()),
		"path", "clients", "queries", "queries/sec", "p50 (ms)", "p99 (ms)", "max (ms)", "shed", "results")

	// Direct-owner baseline: the pre-gateway deployment shape, one
	// in-flight query per owner engine, same total query count as the
	// largest gateway point.
	nq := clients[len(clients)-1] * qpc
	dWall, dLat, err := runDirectLoad(ctx, backends, nq, want)
	if err != nil {
		return nil, err
	}
	tb.Add("direct", fmt.Sprint(sc.Owners), fmt.Sprint(nq),
		fmt.Sprintf("%.1f", float64(nq)/dWall.Seconds()),
		latMS(dLat, 0.50), latMS(dLat, 0.99), latMS(dLat, 1.0), "0", "baseline")

	// Capacity sweep: unlimited admission, C concurrent TCP clients.
	gw, err := startBenchGateway(ctx, gateway.Config{
		Backends:       backends,
		DefaultTimeout: 2 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		res, err := runGatewayLoad(ctx, gw.addr, c, qpc, 2*time.Minute, want, false)
		if err != nil {
			gw.stop()
			return nil, fmt.Errorf("benchx: gatewayscale @%d clients: %w", c, err)
		}
		n := len(res.lat)
		tb.Add("gateway", fmt.Sprint(c), fmt.Sprint(n),
			fmt.Sprintf("%.1f", float64(n)/res.wall.Seconds()),
			latMS(res.lat, 0.50), latMS(res.lat, 0.99), latMS(res.lat, 1.0),
			fmt.Sprint(res.shed), "match")
	}
	if err := gw.stop(); err != nil {
		return nil, fmt.Errorf("benchx: gatewayscale: gateway serve: %w", err)
	}

	// Overload: a rate-limited gateway offered 2× what admission can
	// absorb at once (burst + queue). Reservation semantics make the
	// outcome exact: burst admits immediately, the next queue slots
	// wait a bounded time, the rest come back as typed sheds — and
	// every client gets an answer well before the deadline.
	const (
		overRate  = 100.0
		overQueue = 50
	)
	offered := 2 * (int(overRate) + overQueue)
	overTimeout := 10 * time.Second
	gw2, err := startBenchGateway(ctx, gateway.Config{
		Backends:       backends,
		Rate:           overRate,
		Queue:          overQueue,
		DefaultTimeout: overTimeout,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := runGatewayLoad(ctx, gw2.addr, offered, 1, overTimeout, want, true)
	burstWall := time.Since(start)
	if stopErr := gw2.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("gateway serve: %w", stopErr)
	}
	if err != nil {
		return nil, fmt.Errorf("benchx: gatewayscale overload: %w", err)
	}
	if res.shed == 0 {
		return nil, fmt.Errorf("benchx: gatewayscale overload: %d clients against capacity %d shed nothing",
			offered, int(overRate)+overQueue)
	}
	if bound := overTimeout + 5*time.Second; burstWall > bound {
		return nil, fmt.Errorf("benchx: gatewayscale overload: burst took %v (> %v) — overload hung instead of shedding",
			burstWall.Round(time.Millisecond), bound)
	}
	tb2 := report.New(
		fmt.Sprintf("Gateway overload — %d clients at once vs rate %.0f/s + queue %d (2× capacity)",
			offered, overRate, overQueue),
		"offered", "answered", "shed", "p50 (ms)", "p99 (ms)", "max (ms)", "verdict")
	tb2.Add(fmt.Sprint(offered), fmt.Sprint(len(res.lat)), fmt.Sprint(res.shed),
		latMS(res.lat, 0.50), latMS(res.lat, 0.99), latMS(res.lat, 1.0), "shed, not hung")
	return []*report.Table{tb, tb2}, nil
}

func gatewayMixNames() string {
	names := make([]string, len(gatewayMix))
	for i, m := range gatewayMix {
		names[i] = m.Kind.Name()
	}
	return strings.Join(names, "/")
}

// benchGateway is one gateway instance serving a loopback listener.
type benchGateway struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startBenchGateway(ctx context.Context, cfg gateway.Config) (*benchGateway, error) {
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- gw.Serve(gctx, ln) }()
	return &benchGateway{addr: ln.Addr().String(), cancel: cancel, done: done}, nil
}

func (b *benchGateway) stop() error {
	b.cancel()
	return <-b.done
}

// directFingerprints runs each mix operator once on the direct path and
// returns its canonical result fingerprint — the parity baseline every
// gateway answer must reproduce bit for bit.
func directFingerprints(ctx context.Context, b gateway.Backend) (map[ownerengine.OpKind]string, error) {
	fps := make(map[ownerengine.OpKind]string, len(gatewayMix))
	for _, q := range gatewayMix {
		res, err := b.Exec(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("benchx: gatewayscale direct %s: %w", q.Kind.Name(), err)
		}
		fps[q.Kind] = fingerprint(res)
	}
	return fps, nil
}

// runDirectLoad drives nq mix queries with one worker per backend (the
// deployment shape without a gateway) and checks every result against
// the fingerprint baseline.
func runDirectLoad(ctx context.Context, backends []gateway.Backend, nq int, want map[ownerengine.OpKind]string) (time.Duration, []time.Duration, error) {
	workers := len(backends)
	var (
		next    atomic.Int64
		mu      sync.Mutex
		lat     []time.Duration
		firstEr error
		wg      sync.WaitGroup
	)
	start := time.Now()
	for _, b := range backends {
		wg.Add(1)
		go func(b gateway.Backend) {
			defer wg.Done()
			local := make([]time.Duration, 0, nq/workers+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= nq {
					break
				}
				q := gatewayMix[i%len(gatewayMix)]
				t0 := time.Now()
				res, err := b.Exec(ctx, q)
				if err == nil && fingerprint(res) != want[q.Kind] {
					err = fmt.Errorf("direct %s result diverged from its own baseline", q.Kind.Name())
				}
				if err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstEr != nil {
		return 0, nil, firstEr
	}
	return wall, lat, nil
}

// gwLoadResult aggregates one gateway load point.
type gwLoadResult struct {
	wall time.Duration
	lat  []time.Duration // answered queries only
	shed int             // typed ErrLoadShed rejections
}

// runGatewayLoad connects `clients` concurrent front-protocol TCP
// clients, releases them simultaneously, and has each run qpc mix
// queries. Every successful answer is fingerprint-checked against the
// direct baseline. With allowShed, typed load-shed errors are counted
// instead of failing the run; any other error fails it.
func runGatewayLoad(ctx context.Context, addr string, clients, qpc int, timeout time.Duration, want map[ownerengine.OpKind]string, allowShed bool) (*gwLoadResult, error) {
	conns := make([]*gateway.Client, clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		cl, err := gateway.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dial client %d/%d: %w", i, clients, err)
		}
		conns[i] = cl
	}

	var (
		mu      sync.Mutex
		lat     []time.Duration
		firstEr error
		shed    atomic.Int64
		wg      sync.WaitGroup
		startCh = make(chan struct{})
	)
	for ci, cl := range conns {
		wg.Add(1)
		go func(ci int, cl *gateway.Client) {
			defer wg.Done()
			<-startCh
			local := make([]time.Duration, 0, qpc)
			for q := 0; q < qpc; q++ {
				if ctx.Err() != nil {
					return
				}
				m := gatewayMix[(ci+q)%len(gatewayMix)]
				kind := m.Kind.Name()
				t0 := time.Now()
				resp, err := cl.Query(kind, m.Cols, "bench", timeout)
				if err != nil {
					if allowShed && errors.Is(err, gateway.ErrLoadShed) {
						shed.Add(1)
						continue
					}
					mu.Lock()
					if firstEr == nil {
						firstEr = fmt.Errorf("client %d %s: %w", ci, kind, err)
					}
					mu.Unlock()
					return
				}
				// The mix has no extremes, whose reply fields the front
				// protocol flattens; the rest of a reply is the Result's.
				got := &gateway.Result{Cells: resp.Cells, Count: resp.Count, Sums: resp.Sums, Counts: resp.Counts}
				if fp := fingerprint(got); fp != want[m.Kind] {
					mu.Lock()
					if firstEr == nil {
						firstEr = fmt.Errorf("client %d: %s answer diverged from the direct path:\n gateway %s\n direct  %s",
							ci, kind, fp, want[m.Kind])
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(ci, cl)
	}
	start := time.Now()
	close(startCh)
	wg.Wait()
	wall := time.Since(start)
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &gwLoadResult{wall: wall, lat: lat, shed: int(shed.Load())}, nil
}

// latMS formats the p-quantile of lat in milliseconds (p = 1 → max).
func latMS(lat []time.Duration, p float64) string {
	if len(lat) == 0 {
		return "-"
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	if idx > len(s)-1 {
		idx = len(s) - 1
	}
	return fmt.Sprintf("%.1f", float64(s[idx].Nanoseconds())/1e6)
}
