package gateway

import (
	"context"

	"prism/internal/ownerengine"
)

// EngineBackend adapts one ownerengine.Owner into a pool Backend — the
// only Backend there is. cmd/prism-gateway pools several, each an
// independent owner engine speaking to the server fabric over its own
// TCP client (so one member's dead connections do not poison
// another's health); prism.System.GatewayBackends pools one per local
// owner.
//
// What a member can serve follows from what it was handed. With Cohort
// nil it is a lone owner engine and serves the single-session kinds
// (psi, psu, count, psucount, sum, avg, psusum, psuavg); the exemplary
// aggregations (max/min/median) need every data owner's engine in one
// coordinated flow — a gateway fronting one owner cannot impersonate the
// other m−1 — so those return ErrUnsupported. With the deployment's
// Cohort set it serves every kind.
type EngineBackend struct {
	Owner  *ownerengine.Owner
	Table  string
	Verify bool // run result verification before answering
	Cohort *ownerengine.Cohort
}

// Exec implements Backend: the query script is ownerengine.Exec's.
func (b *EngineBackend) Exec(ctx context.Context, q Query) (*Result, error) {
	q.Table, q.Verify = b.Table, b.Verify
	return b.Owner.Exec(ctx, q, b.Cohort)
}

// Ping implements Backend: the owner's full-fabric liveness probe.
func (b *EngineBackend) Ping(ctx context.Context) error {
	return b.Owner.Ping(ctx)
}
