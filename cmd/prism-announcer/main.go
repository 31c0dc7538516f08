// Command prism-announcer runs S_a, the announcer (paper §3.2 entity 4),
// over TCP. It participates only in max/min/median queries, receiving
// PF-permuted blinded slot arrays from the two additive-share servers
// and re-sharing the winning value and slot.
//
//	prism-announcer -view views/announcer.view -listen :7000
//
// In a multi-group deployment (prism-init -groups) one announcer serves
// every group and runs the cross-group final round of max/min/median
// queries. It knows nothing of the placement: owners take each group's
// view and servers from their own -view and -servers flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"prism/internal/announcer"
	"prism/internal/params"
	"prism/internal/telemetry"
	"prism/internal/transport"
	"prism/internal/viewio"
)

func main() {
	var (
		viewPath = flag.String("view", "", "announcer view file from prism-init (required)")
		listen   = flag.String("listen", ":7000", "listen address")
		metrics  = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9100); empty disables the endpoint")
	)
	flag.Parse()
	if *viewPath == "" {
		fatal(fmt.Errorf("-view is required"))
	}
	var view params.AnnouncerView
	if err := viewio.Load(*viewPath, &view); err != nil {
		fatal(err)
	}
	engine := announcer.New(&view)
	if *metrics != "" {
		mux := telemetry.AdminMux()
		telemetry.Default.RegisterVar("announcer_sessions", func() any { return engine.Sessions() })
		telemetry.ServeAdmin(*metrics, mux, log.Printf)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("prism-announcer: listening on %s (m=%d)\n", ln.Addr(), view.M)
	if err := transport.Serve(ctx, ln, engine, transport.WithLogf(log.Printf)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-announcer:", err)
	os.Exit(1)
}
