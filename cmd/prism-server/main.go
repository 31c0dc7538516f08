// Command prism-server runs one Prism share server S_φ over TCP. It
// stores the secret-shared columns outsourced by owners and answers
// query rounds; its only outbound connection is to the announcer
// (servers never talk to each other).
//
//	prism-server -view views/server-0.view -listen :7001 -announcer localhost:7000
//
// In a multi-group deployment (prism-init -groups) each server loads
// its group's view (server-g<g>-<phi>.view); the group id and domain
// range are baked into the view, so no extra flag is needed. The server
// rejects data-plane requests targeting another group and stamps its
// group into table manifests, so a restart with -recover cannot adopt
// another group's shares.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/sharestore"
	"prism/internal/telemetry"
	"prism/internal/transport"
	"prism/internal/viewio"
)

func main() {
	var (
		viewPath   = flag.String("view", "", "server view file from prism-init (required)")
		listen     = flag.String("listen", ":7001", "listen address")
		announcer  = flag.String("announcer", "", "announcer host:port (needed for max/min/median)")
		storeDir   = flag.String("store", "", "serve columns from the on-disk share store in this directory (fetched per query, fetch-time accounting); empty serves from RAM")
		hotChunks  = flag.Uint64("hotchunks", 0, "with -store: cache hot chunks per table epoch under this byte budget (LRU eviction past it) instead of reading per query; 0 = cache off")
		chunkCells = flag.Uint64("chunkcells", 0, "share-store chunk size in cells for newly written columns (0 = 65536); align with the owners' -shard size")
		pendTTL    = flag.Duration("pendttl", 0, "reclaim upload assemblies idle longer than this (crashed owners); 0 disables the sweep")
		deltaMax   = flag.Int("deltamax", 0, "compact a table's delta log once it holds this many entries (0 = never: there is no default threshold, so with -compact 0 too the log is never compacted; incremental updates only)")
		compactEvr = flag.Duration("compact", 0, "also sweep every table's delta log for compaction on this interval (0 = -deltamax-triggered only)")
		threads    = flag.Int("threads", 0, "worker pool width (0 = GOMAXPROCS)")
		inflight   = flag.Int("inflight", 0, "per-connection RPC pipelining depth (0 = transport default)")
		recoverTab = flag.Bool("recover", false, "with -store: reload outsourced tables from the store's manifests at startup (corrupt tables are quarantined, crashed uploads reclaimed) instead of booting empty")
		metrics    = flag.String("metrics", "", "serve /metrics, /debug/vars, /debug/tables and /debug/pprof on this address (e.g. :9101); empty disables the endpoint")
	)
	flag.Parse()
	if *viewPath == "" {
		fatal(fmt.Errorf("-view is required"))
	}
	var view params.ServerView
	if err := viewio.Load(*viewPath, &view); err != nil {
		fatal(err)
	}
	if err := params.CheckEtaPrime(view.EtaPrime); err != nil {
		fatal(fmt.Errorf("%s: %w", *viewPath, err))
	}
	// Multi-group deployments bake the group id into the view file
	// (prism-init -groups); the engine then rejects data-plane requests
	// targeting any other group and stamps the group into table
	// manifests so a restart cannot adopt another group's shares.
	opts := serverengine.Options{Threads: *threads, PendingTTL: *pendTTL,
		DeltaMax: *deltaMax, CompactEvery: *compactEvr, Group: view.Group}
	if *storeDir != "" {
		st, err := sharestore.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		st.SetChunkCells(*chunkCells)
		opts.Store = st
		opts.CacheBytes = int64(*hotChunks)
	}
	if *announcer != "" {
		opts.AnnouncerAddr = "announcer"
		opts.Caller = transport.NewTCPClientOpts(
			map[string]string{"announcer": *announcer},
			transport.ClientOptions{PerConnInflight: *inflight})
	}
	engine := serverengine.New(&view, opts)
	if *recoverTab {
		if opts.Store == nil {
			fatal(fmt.Errorf("-recover needs -store"))
		}
		rep, err := engine.Recover()
		if err != nil {
			fatal(err)
		}
		for _, t := range rep.Recovered {
			fmt.Printf("prism-server: recovered table %q (epoch %d, owners %v", t.Name, t.Epoch, t.Owners)
			if len(t.Adopted) > 0 {
				fmt.Printf(", adopted %v", t.Adopted)
			}
			fmt.Println(")")
		}
		for _, q := range rep.Quarantined {
			fmt.Printf("prism-server: quarantined table %q: %s (%s)\n", q.Name, q.Reason, q.Detail)
		}
		for _, name := range rep.Ignored {
			fmt.Printf("prism-server: ignored directory %q (no usable manifest)\n", name)
		}
		if rep.PendingReclaimed > 0 {
			fmt.Printf("prism-server: reclaimed %d crashed upload assemblies\n", rep.PendingReclaimed)
		}
	}

	if *metrics != "" {
		mux := telemetry.AdminMux()
		mux.HandleFunc("/debug/tables", tablesHandler(engine, opts.Store))
		registerServerVars(engine, opts.Store)
		telemetry.ServeAdmin(*metrics, mux, log.Printf)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("prism-server: S_%d listening on %s (m=%d, b=%d, δ=%d, group=%d, cells [%d, %d))\n",
		view.Index, ln.Addr(), view.M, view.B, view.Delta, view.Group, view.Start, view.Start+view.B)
	serveOpts := []transport.ServeOption{transport.WithLogf(log.Printf)}
	if *inflight > 0 {
		serveOpts = append(serveOpts, transport.WithPerConnWorkers(*inflight))
	}
	if err := transport.Serve(ctx, ln, engine, serveOpts...); err != nil {
		fatal(err)
	}
}

// tablesHandler serves /debug/tables: the server's ListTables answer
// plus the share store's quarantine entries with their reasons — one
// stop for "what is this server serving, and what did recovery set
// aside?".
func tablesHandler(engine *serverengine.Engine, store *sharestore.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep, err := engine.Handle(r.Context(), protocol.ListTablesRequest{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		lrep, _ := rep.(protocol.ListTablesReply)
		out := struct {
			Tables      []protocol.TableStatus      `json:"tables"`
			Quarantined []sharestore.QuarantineInfo `json:"quarantined,omitempty"`
		}{Tables: lrep.Tables}
		if store != nil {
			if q, err := store.Quarantined(); err == nil {
				out.Quarantined = q
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	}
}

// registerServerVars exposes the server's table inventory and
// quarantine state under /debug/vars, alongside the numeric metric
// snapshot.
func registerServerVars(engine *serverengine.Engine, store *sharestore.Store) {
	telemetry.Default.RegisterVar("served_tables", func() any {
		rep, err := engine.Handle(context.Background(), protocol.ListTablesRequest{})
		if err != nil {
			return err.Error()
		}
		lrep, _ := rep.(protocol.ListTablesReply)
		names := make([]string, 0, len(lrep.Tables))
		for _, t := range lrep.Tables {
			names = append(names, t.Spec.Name)
		}
		return names
	})
	if store != nil {
		telemetry.Default.RegisterVar("quarantined_tables", func() any {
			q, err := store.Quarantined()
			if err != nil {
				return err.Error()
			}
			return q
		})
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-server:", err)
	os.Exit(1)
}
