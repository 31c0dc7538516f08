// Package transport moves protocol messages between Prism entities.
//
// Two implementations share one interface:
//
//   - Network: in-process dispatch used by tests, benchmarks and the
//     library's local mode. Optionally forces a wire-frame round trip
//     per call so message encodability is continuously exercised.
//   - TCP (tcp.go): length-delimited frames over net.Conn for real
//     multi-process deployments (cmd/prism-server etc.).
//
// Both speak one frame format through one encode/decode pair
// (encodeFrame/decodeFrame in tcp.go): a small gob envelope followed by
// the message's bulk share vectors as raw width-packed slabs.
//
// The TCP transport is multiplexed: every frame carries a request id, so
// one persistent connection per peer serves many concurrent RPCs. The
// client interleaves requests on the shared connection (a writer token
// keeps frames atomic, a demux reader routes replies by id) and the
// server dispatches each decoded request to a bounded per-connection
// worker pool, so a slow call never blocks cheap ones queued behind it.
// Replies may return in any order. The number of RPCs in flight on one
// connection is bounded by DefaultPerConnInflight unless overridden
// (ClientOptions.PerConnInflight / WithPerConnWorkers); the in-process
// Network mirrors the same bound per address via SetPerAddrInflight.
//
// Prism's trust model requires that servers never talk to each other;
// the address-based topology makes that auditable: engines are handed a
// Caller scoped to the peers they may contact.
package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Handler processes one request and produces a reply.
type Handler interface {
	Handle(ctx context.Context, req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req any) (any, error)

// Handle calls f.
func (f HandlerFunc) Handle(ctx context.Context, req any) (any, error) { return f(ctx, req) }

// Caller issues a request to a logical address and awaits the reply.
type Caller interface {
	Call(ctx context.Context, addr string, req any) (any, error)
}

// Network is an in-process message fabric keyed by logical address
// (e.g. "server/0", "announcer"). Safe for concurrent use.
type Network struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	sems     map[string]chan struct{}
	inflight int
	// EncodeWire forces every call through a frame encode/decode cycle,
	// matching what the TCP transport does on the wire — including the
	// frame cap: an encoding larger than FrameLimit() fails the call
	// with ErrFrameTooLarge exactly as the TCP transport would.
	EncodeWire bool
	// peakFrame tracks the largest encoded message observed (EncodeWire
	// only) so benchmarks can report peak frame size per configuration.
	peakFrame atomic.Int64
}

// NewNetwork returns an empty in-process network.
func NewNetwork() *Network {
	return &Network{handlers: make(map[string]Handler), sems: make(map[string]chan struct{})}
}

// SetPerAddrInflight bounds how many calls may execute concurrently per
// address, mirroring the TCP transport's per-connection pipelining bound
// so local-mode behaviour matches a wire deployment. 0 removes the
// bound. Takes effect for calls issued after it returns.
func (n *Network) SetPerAddrInflight(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inflight = k
	n.sems = make(map[string]chan struct{}) // resize on next use
}

// acquireSlot claims an in-flight slot for addr (when bounded), honouring
// ctx while queued. The release func is nil-safe to call exactly once.
func (n *Network) acquireSlot(ctx context.Context, addr string) (func(), error) {
	n.mu.Lock()
	if n.inflight <= 0 {
		n.mu.Unlock()
		return func() {}, nil
	}
	sem, ok := n.sems[addr]
	if !ok {
		sem = make(chan struct{}, n.inflight)
		n.sems[addr] = sem
	}
	n.mu.Unlock()
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Register installs the handler for a logical address.
func (n *Network) Register(addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[addr] = h
}

// Deregister removes an address.
func (n *Network) Deregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, addr)
}

// Call dispatches the request to the registered handler.
func (n *Network) Call(ctx context.Context, addr string, req any) (any, error) {
	n.mu.RLock()
	h, ok := n.handlers[addr]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no handler at %q", addr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	release, err := n.acquireSlot(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer release()
	if n.EncodeWire {
		rt, err := n.roundTrip(req)
		if err != nil {
			return nil, fmt.Errorf("transport: encoding request for %q: %w", addr, err)
		}
		reply, err := h.Handle(ctx, rt)
		if err != nil {
			return nil, err
		}
		out, err := n.roundTrip(reply)
		if err != nil {
			return nil, fmt.Errorf("transport: encoding reply from %q: %w", addr, err)
		}
		return out, nil
	}
	return h.Handle(ctx, req)
}

// PeakFrameBytes reports the largest encoded frame body this network
// has moved since the last reset. Only populated when EncodeWire is on
// (without it no message is ever encoded).
func (n *Network) PeakFrameBytes() int64 { return n.peakFrame.Load() }

// ResetPeakFrame clears the peak-frame measurement (e.g. between the
// outsourcing and query phases of a benchmark).
func (n *Network) ResetPeakFrame() { n.peakFrame.Store(0) }

// roundTrip encodes v into a wire frame and decodes it again, as the TCP
// transport would, enforcing the same frame cap and recording the peak
// size.
func (n *Network) roundTrip(v any) (any, error) {
	frame, err := encodeFrame(&envelope{Payload: v})
	if err != nil {
		return nil, err
	}
	defer frameBufs.Put(frame)
	size := int64(len(frame) - 4)
	for {
		prev := n.peakFrame.Load()
		if size <= prev || n.peakFrame.CompareAndSwap(prev, size) {
			break
		}
	}
	out, err := decodeFrame(frame[4:])
	if err != nil {
		return nil, err
	}
	return out.Payload, nil
}

// envelope wraps an arbitrary registered payload for the frame's gob
// header. ID correlates a reply with its request on a multiplexed
// connection: the client assigns ids starting at 1 and the server echoes
// them. ID 0 marks a connection-level message (a protocol-violation
// error frame), which dooms every call in flight on that connection.
type envelope struct {
	ID      uint64
	Payload any
	Err     string
}
