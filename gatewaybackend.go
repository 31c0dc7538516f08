package prism

import "prism/internal/gateway"

// GatewayBackend adapts this owner into a gateway pool member — the same
// gateway.EngineBackend cmd/prism-gateway pools, here handed the local
// system's cohort (every owner's engine), so it also serves the
// exemplary aggregations (max/min/median) a lone owner engine must
// refuse.
func (o *Owner) GatewayBackend() gateway.Backend {
	return &gateway.EngineBackend{Owner: o.eng, Table: tableName, Verify: o.sys.cfg.Verify, Cohort: o.sys.cohort}
}

// GatewayBackends returns one backend per owner — the natural pool for
// a gateway fronting a local deployment.
func (s *System) GatewayBackends() []gateway.Backend {
	out := make([]gateway.Backend, len(s.owners))
	for i, o := range s.owners {
		out[i] = o.GatewayBackend()
	}
	return out
}
