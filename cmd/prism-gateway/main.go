// Command prism-gateway is the stateless query front tier: it accepts
// many cheap client connections on a length-prefixed JSON front
// protocol (submit / poll / ping), multiplexes admitted queries onto a
// bounded pool of owner engines, and sheds overload with typed errors
// instead of queueing unboundedly. See docs/OPERATIONS.md "Gateway
// deployment" for the full recipe and docs/ARCHITECTURE.md for the
// pool/admission design.
//
// Usage (single group):
//
//	prism-gateway -listen :8100 -view views/owner.view -index 0 \
//	    -servers localhost:7001,localhost:7002,localhost:7003 \
//	    -owners 4 -rate 200 -queue 64 -metrics :9104
//
// Multi-group deployments pass one view per group via -views and one
// server triple per group in -servers, ';'-separated in group order
// (the prism-owner conventions).
//
// The pool is -owners independent owner engines, each with its own
// multiplexed TCP client, all registered under the same owner -index:
// queries lease members round-robin, and a member whose connections die
// is probed (Ping RPC), marked down, and routed around until it
// answers again. Every member is a gateway.EngineBackend without a
// cohort: extremes (max/min/median) need every data owner's engine in
// one process and are refused with code "unsupported".
//
// A front-protocol query frame looks like:
//
//	{"op":"submit","query":"psi","tenant":"t0","timeout_ms":5000}
//	{"op":"poll","ticket":"q1","wait_ms":5000}
//	{"op":"ping"}
//
// each prefixed with a 4-byte big-endian byte length.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prism/internal/gateway"
	"prism/internal/ownerengine"
	"prism/internal/telemetry"
	"prism/internal/transport"
	"prism/internal/viewio"
)

func main() {
	var (
		listen    = flag.String("listen", "", "front-protocol listen address (required, e.g. :8100)")
		viewPath  = flag.String("view", "", "owner view file from prism-init (single-group deployments)")
		viewPaths = flag.String("views", "", "comma-separated per-group owner view files, in group order")
		index     = flag.Int("index", 0, "pool members' owner index in [0, m)")
		servers   = flag.String("servers", "", "comma-separated host:port of each group's 3 servers; ';' separates groups (required)")
		owners    = flag.Int("owners", 4, "owner-engine pool size")
		rate      = flag.Float64("rate", 0, "per-tenant admission rate in queries/sec (0 = unlimited)")
		burst     = flag.Float64("burst", 0, "per-tenant token-bucket capacity (0 = same as -rate)")
		queue     = flag.Int("queue", 64, "bounded admission waiting-queue depth")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-query deadline when submit carries no timeout_ms")
		table     = flag.String("table", "main", "logical table name queries run against")
		verify    = flag.Bool("verify", false, "run every result-verification check of a query's kind before answering")
		inflight  = flag.Int("inflight", 0, "per-connection RPC pipelining depth of each pool member's TCP client (0 = transport default)")
		shard     = flag.Uint64("shard", 0, "window size in cells for query vectors (0 = one window of the whole table)")
		probe     = flag.Duration("probe", 2*time.Second, "owner-pool liveness probe interval")
		metrics   = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9104); empty disables the endpoint")
	)
	flag.Parse()
	if *listen == "" || (*viewPath == "" && *viewPaths == "") || *servers == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *owners < 1 {
		fatal(fmt.Errorf("-owners must be at least 1"))
	}

	cfgs, book, err := viewio.OwnerGroups(*viewPath, *viewPaths, *servers)
	if err != nil {
		fatal(err)
	}

	// Each pool member gets its own owner engine over its own TCP
	// client: a member's dead connections then fail ITS liveness probe
	// without poisoning the others, which is what makes mark-down and
	// re-route meaningful.
	backends := make([]gateway.Backend, *owners)
	for k := 0; k < *owners; k++ {
		client := transport.NewTCPClientOpts(book, transport.ClientOptions{PerConnInflight: *inflight})
		defer client.Close()
		owner, err := ownerengine.NewMulti(*index, cfgs, client, [32]byte{})
		if err != nil {
			fatal(err)
		}
		owner.SetShardCells(*shard)
		backends[k] = &gateway.EngineBackend{Owner: owner, Table: *table, Verify: *verify}
	}

	gw, err := gateway.New(gateway.Config{
		Backends:       backends,
		Rate:           *rate,
		Burst:          *burst,
		Queue:          *queue,
		DefaultTimeout: *timeout,
		ProbeInterval:  *probe,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "prism-gateway: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	if *metrics != "" {
		telemetry.Default.RegisterVar("gateway_pool_size", func() any { return len(backends) })
		telemetry.Default.RegisterVar("gateway_pool_healthy", func() any { return gw.Pool().Healthy() })
		telemetry.Default.RegisterVar("gateway_queue_depth", func() any { return gw.QueueDepth() })
		telemetry.ServeAdmin(*metrics, telemetry.AdminMux(), func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "prism-gateway: "+format+"\n", args...)
		})
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("prism-gateway: serving on %s (pool %d, rate %.0f/s, queue %d)\n",
		ln.Addr(), len(backends), *rate, *queue)
	if err := gw.Serve(ctx, ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-gateway:", err)
	os.Exit(1)
}
