// Package viewio persists the initiator's per-entity parameter views as
// gob files. The initiator (cmd/prism-init) writes one file per entity;
// each daemon/CLI loads only its own view, preserving the knowledge
// asymmetry of §4 at the file-distribution level. View files contain
// protocol secrets (permutations, seeds) and must be distributed over
// secure channels, like any key material.
package viewio

import (
	"encoding/gob"
	"fmt"
	"os"
	"strings"

	"prism/internal/ownerengine"
	"prism/internal/params"
)

// Save writes v as a gob file.
func Save(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("viewio: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		return fmt.Errorf("viewio: encoding %s: %w", path, err)
	}
	return nil
}

// Load reads a gob file into v (a pointer).
func Load(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("viewio: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("viewio: decoding %s: %w", path, err)
	}
	return nil
}

// OwnerGroups turns the deployment flags prism-owner and prism-gateway
// share into what ownerengine.New and the TCP client need: views is the
// comma-separated per-group owner view files in group order (one file
// for a one-group deployment), and servers one comma-separated
// host:port triple per group, ';'-separated in the same order. Group g's
// servers get the logical names g<g>/server/<i>; book maps each logical
// name to its host:port.
func OwnerGroups(views, servers string) (groups []ownerengine.GroupConfig, book map[string]string, err error) {
	paths := strings.Split(views, ",")
	triples := strings.Split(servers, ";")
	if len(triples) != len(paths) {
		return nil, nil, fmt.Errorf("%d server groups for %d owner views; pass one ';'-separated server triple per view", len(triples), len(paths))
	}
	book = make(map[string]string)
	groups = make([]ownerengine.GroupConfig, len(paths))
	for g, p := range paths {
		v := new(params.OwnerView)
		if err := Load(strings.TrimSpace(p), v); err != nil {
			return nil, nil, err
		}
		addrs := strings.Split(triples[g], ",")
		if len(addrs) != params.NumServers {
			return nil, nil, fmt.Errorf("group %d: need %d server addresses, got %d", g, params.NumServers, len(addrs))
		}
		logical := make([]string, len(addrs))
		for i, a := range addrs {
			logical[i] = fmt.Sprintf("g%d/server/%d", g, i)
			book[logical[i]] = strings.TrimSpace(a)
		}
		groups[g] = ownerengine.GroupConfig{View: v, Servers: logical}
	}
	return groups, book, nil
}
