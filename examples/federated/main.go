// Federated deployment over real TCP — the programmatic equivalent of
// running cmd/prism-init, cmd/prism-announcer, cmd/prism-server ×3 and
// three cmd/prism-owner processes on separate machines.
//
// Scenario: three banks hold private watchlists of client ids with an
// exposure amount. Jointly they want: the clients every bank has
// flagged (PSI, verified), the combined exposure per common client
// (PSI sum), and the largest single-bank exposure with the banks that
// hold it (PSI max — the full three-round §6.3 protocol through the
// announcer, plus the query-global maximum), all over loopback TCP with
// length-prefixed wire frames. Every query is one ownerengine.Exec call —
// the same entry point the library, prism-gateway and prism-owner use;
// this process holds all three banks' engines (a Cohort), which is what
// lets it run the max.
//
// Run: go run ./examples/federated
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"prism/internal/announcer"
	"prism/internal/ownerengine"
	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/serverengine"
	"prism/internal/transport"
)

const (
	numBanks   = 3
	domainSize = 10_000 // client-id space 1..10000
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// ---- initiator (cmd/prism-init) ----
	sys, err := params.Generate(params.Config{
		NumOwners:  numBanks,
		DomainSize: domainSize,
		MaxAgg:     1_000_000,
	})
	must(err)

	// ---- announcer (cmd/prism-announcer) ----
	annLn := listen()
	go transport.Serve(ctx, annLn, announcer.New(sys.ForAnnouncer()))
	fmt.Printf("announcer listening on %s\n", annLn.Addr())

	// ---- three servers (cmd/prism-server) ----
	serverAddrs := make([]string, params.NumServers)
	for phi := 0; phi < params.NumServers; phi++ {
		view, err := sys.ForServer(phi)
		must(err)
		ln := listen()
		serverAddrs[phi] = ln.Addr().String()
		eng := serverengine.New(view, serverengine.Options{
			AnnouncerAddr: "announcer",
			Caller:        transport.NewTCPClient(map[string]string{"announcer": annLn.Addr().String()}),
		})
		go transport.Serve(ctx, ln, eng)
		fmt.Printf("server S_%d listening on %s\n", phi, ln.Addr())
	}

	// ---- three bank owners (cmd/prism-owner) ----
	logical := []string{"g0/server/0", "g0/server/1", "g0/server/2"}
	group := []ownerengine.GroupConfig{{View: sys.ForOwner(), Servers: logical}}
	owners := make([]*ownerengine.Owner, numBanks)
	for j := 0; j < numBanks; j++ {
		book := map[string]string{"announcer": annLn.Addr().String()}
		for i, l := range logical {
			book[l] = serverAddrs[i]
		}
		o, err := ownerengine.New(j, group, transport.NewTCPClient(book), 0, prg.NewSeed())
		must(err)
		owners[j] = o
	}

	// Private watchlists: clients 77 and 4242 are flagged by every bank.
	rng := prg.New(prg.SeedFromString("federated-demo"))
	for j, o := range owners {
		data := &ownerengine.Data{Aggs: map[string][]uint64{"exposure": nil}}
		add := func(client, exposure uint64) {
			data.Cells = append(data.Cells, client-1)
			data.Aggs["exposure"] = append(data.Aggs["exposure"], exposure)
		}
		add(4242, 100_000*uint64(j+1)) // the common clients
		add(77, 50_000*uint64(numBanks-j))
		for k := 0; k < 200; k++ {
			add(1+rng.Uint64n(domainSize), 1_000+rng.Uint64n(50_000))
		}
		must(o.Load(data))
		st, err := o.Outsource(ctx, ownerengine.OutsourceSpec{
			Table: "watchlist", AggCols: []string{"exposure"}, Verify: true, WithCount: true,
		})
		must(err)
		fmt.Printf("bank %d outsourced shares over TCP in %.3fs\n", j+1,
			float64(st.BuildNS+st.SplitNS+st.UploadNS)/1e9)
	}

	querier := owners[0]
	cohort := &ownerengine.Cohort{Owners: owners, Announcer: "announcer"}
	exec := func(kind ownerengine.OpKind, cols ...string) *ownerengine.Result {
		res, err := querier.Exec(ctx, ownerengine.Query{Kind: kind, Table: "watchlist", Cols: cols, Verify: true}, cohort)
		must(err)
		return res
	}

	// ---- PSI with verification ----
	psi := exec(ownerengine.OpPSI)
	fmt.Printf("\nclients flagged by all %d banks (verified PSI): ", numBanks)
	for _, c := range psi.Cells {
		fmt.Printf("#%d ", c+1)
	}
	fmt.Println()

	// ---- PSI sum (with the flag counts: the avg kind fetches both) ----
	agg := exec(ownerengine.OpPSIAvg, "exposure")
	for _, c := range agg.Cells {
		fmt.Printf("combined exposure for client #%d: $%d across %d flags\n",
			c+1, agg.Sums["exposure"][c], agg.Counts[c])
	}

	// ---- PSI max: the full §6.3 rounds over TCP ----
	// Vector rounds: every step is one exchange per server however many
	// clients are common, each message carrying one entry per cell.
	top := exec(ownerengine.OpPSIMax, "exposure")
	for _, c := range top.Cells {
		holders := make([]int, len(top.Extreme[c].Owners))
		for i, j := range top.Extreme[c].Owners {
			holders[i] = j + 1
		}
		fmt.Printf("largest single-bank exposure for client #%d: $%d (bank(s) %v)\n",
			c+1, top.Extreme[c].Value, holders)
	}
	fmt.Printf("largest exposure overall: $%d, client #%d\n", top.Global.Value, top.GlobalCell+1)
	fmt.Println("\nall rounds ran over loopback TCP; servers never contacted each other")
}

func listen() net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	return ln
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
