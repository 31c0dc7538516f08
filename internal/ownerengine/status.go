package ownerengine

import (
	"context"
	"errors"
	"fmt"

	"prism/internal/params"
	"prism/internal/protocol"
)

// ListTables asks every server which tables it currently serves and
// returns the per-server answers (index φ = server φ). Owners use it
// after a server restart to probe whether their outsourced tables are
// still registered — a disk-backed server that recovered from its
// manifests answers without any re-outsourcing, and the per-table epoch
// lets a probe distinguish "still the registration I made" from
// "re-registered since".
func (o *engine) ListTables(ctx context.Context) ([][]protocol.TableStatus, error) {
	replies, release, err := o.callServers(ctx, params.NumServers, func(int) any { return protocol.ListTablesRequest{} })
	defer release()
	if err != nil {
		return nil, err
	}
	out := make([][]protocol.TableStatus, params.NumServers)
	for phi, r := range replies {
		rep, ok := r.(protocol.ListTablesReply)
		if !ok {
			return nil, fmt.Errorf("ownerengine: unexpected list reply %T", r)
		}
		out[phi] = rep.Tables
	}
	return out, nil
}

// Ping probes every server of this engine's group concurrently and
// joins the failures, each tagged with the unreachable server's logical
// address (callServers). A nil return means all three servers answered —
// the group can take traffic. Unlike ListTables it moves no inventory,
// so health checkers can run it at high frequency against loaded servers.
func (o *engine) Ping(ctx context.Context) error {
	replies, release, err := o.callServers(ctx, params.NumServers, func(int) any { return protocol.PingRequest{} })
	defer release()
	for phi, r := range replies {
		if _, ok := r.(protocol.PingReply); !ok && r != nil {
			err = errors.Join(err, fmt.Errorf("%s: unexpected ping reply %T", o.servers[phi], r))
		}
	}
	return err
}
