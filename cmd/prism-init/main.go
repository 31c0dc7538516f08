// Command prism-init is the initiator (paper §3.2 entity 3): it
// generates all protocol parameters once and writes per-entity view
// files that the servers, owners and announcer load at startup.
//
//	prism-init -owners 3 -domain 1000000 -maxagg 100000 -out ./views
//
// produces ./views/{owner-g0.view, server-g0-0.view, server-g0-1.view,
// server-g0-2.view, announcer.view}. View files contain secrets;
// distribute them over secure channels.
//
// With -groups N the domain is partitioned into N contiguous ranges,
// each served by its own independent S0/S1/S2 group: owner-g<g>.view and
// server-g<g>-<phi>.view for every group g, plus one shared
// announcer.view (the masking parameters the announcer needs are
// deployment-global, so one announcer serves every group). Owners load
// all N owner views — one per group, in group order — via prism-owner
// -view.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/viewio"
)

func main() {
	var (
		owners = flag.Int("owners", 3, "number of DB owners (m)")
		domain = flag.Uint64("domain", 1_000_000, "domain size b = |Dom(A_c)|")
		delta  = flag.Uint64("delta", 0, "additive-group prime δ (0 = paper default 113)")
		maxAgg = flag.Uint64("maxagg", 1<<20, "bound on aggregation values (sizes Q)")
		groups = flag.Int("groups", 1, "server groups partitioning the domain")
		seed   = flag.String("seed", "", "hex seed for deterministic generation (empty = fresh entropy)")
		out    = flag.String("out", ".", "output directory for view files")
	)
	flag.Parse()

	var s prg.Seed
	if *seed != "" {
		raw, err := hex.DecodeString(*seed)
		if err != nil || len(raw) == 0 {
			fatal(fmt.Errorf("bad -seed: %v", err))
		}
		copy(s[:], raw)
	}
	multi, err := params.GenerateGroups(params.Config{
		NumOwners:  *owners,
		DomainSize: *domain,
		Delta:      *delta,
		MaxAgg:     *maxAgg,
		Seed:       s,
	}, *groups)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for g, sys := range multi.Groups {
		if err := viewio.Save(filepath.Join(*out, fmt.Sprintf("owner-g%d.view", g)), sys.ForOwner()); err != nil {
			fatal(err)
		}
		for phi := 0; phi < params.NumServers; phi++ {
			v, err := sys.ForServer(phi)
			if err != nil {
				fatal(err)
			}
			if err := viewio.Save(filepath.Join(*out, fmt.Sprintf("server-g%d-%d.view", g, phi)), v); err != nil {
				fatal(err)
			}
		}
	}
	if err := viewio.Save(filepath.Join(*out, "announcer.view"), multi.Groups[0].ForAnnouncer()); err != nil {
		fatal(err)
	}
	sys := multi.Groups[0]
	fmt.Printf("prism-init: wrote views for %d owners, domain %d across %d groups (δ=%d, η=%d, η'=%d) to %s\n",
		*owners, *domain, len(multi.Groups), sys.Delta, sys.Eta, sys.EtaPrime, *out)
	for _, gs := range multi.Groups {
		fmt.Printf("prism-init:   group %d serves cells [%d, %d) (%d cells)\n",
			gs.Group, gs.Start, gs.Start+gs.B, gs.B)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-init:", err)
	os.Exit(1)
}
