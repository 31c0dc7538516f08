package prism

import "prism/internal/transport"

// interceptGroupServer rewires group g's server phi through a wrapper
// handler. Tests use it to simulate malicious servers (reply tampering,
// skipped cells, fake injections), dead or slow ones, and to count what
// each server receives. Not part of the public API.
func (s *System) interceptGroupServer(g, phi int, wrap func(transport.Handler) transport.Handler) {
	s.network.Register(serverAddr(g, phi), wrap(s.servers[g][phi]))
}

// restoreGroupServer undoes interceptGroupServer.
func (s *System) restoreGroupServer(g, phi int) {
	s.network.Register(serverAddr(g, phi), s.servers[g][phi])
}
