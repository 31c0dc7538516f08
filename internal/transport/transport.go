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
// (encodeFrame/decodeFrame in tcp.go): a request id, an error string and
// the message in the protocol package's one binary codec, its share
// vectors width-packed.
//
// The TCP transport is multiplexed: every frame carries a request id, so
// one persistent connection per peer serves many concurrent RPCs. The
// client interleaves requests on the shared connection (a writer token
// keeps frames atomic, a demux reader routes replies by id) and the
// server dispatches each decoded request to a bounded per-connection
// worker pool, so a slow call never blocks cheap ones queued behind it.
// Replies may return in any order. The number of RPCs in flight on one
// connection is bounded by DefaultPerConnInflight, on both ends; the
// in-process Network applies the same bound per address.
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

	"prism/internal/protocol"
)

// Handler processes one request and produces a reply.
type Handler interface {
	Handle(ctx context.Context, req any) (any, error)
}

// A LayingHandler is a Handler whose HandleLaid answers as Handle does,
// except that a reply may be a laid frame (*protocol.Laid, see Lay),
// returned with a nil error. The transports call HandleLaid where a
// handler has it and send such a reply without copying it.
type LayingHandler interface {
	Handler
	HandleLaid(ctx context.Context, req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req any) (any, error)

// Handle calls f.
func (f HandlerFunc) Handle(ctx context.Context, req any) (any, error) { return f(ctx, req) }

// Caller issues a request to a logical address and awaits the reply.
// A request may be a laid frame (*protocol.Laid, see Lay): the call takes
// it over, sends it without copying and releases it on every path.
// Call's reply shares no memory with a frame. CallBorrowed's may: the
// full-width share vectors of a borrowed message type (protocol.
// DecodeBorrowing) point into the frame the reply was decoded from, which
// goes back to the frame pool when release is called. Call release once
// the reply is no longer read; a reply never released is left to the GC.
// release is never nil.
type Caller interface {
	Call(ctx context.Context, addr string, req any) (any, error)
	CallBorrowed(ctx context.Context, addr string, req any) (reply any, release func(), err error)
}

// Network is an in-process message fabric keyed by logical address
// (e.g. "g0/server/0", "announcer"). Safe for concurrent use.
type Network struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	sems     map[string]chan struct{} // per address, cap DefaultPerConnInflight
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

// acquireSlot claims one of addr's DefaultPerConnInflight slots — the
// bound the TCP transport applies per connection, so local-mode
// behaviour matches a wire deployment — honouring ctx while queued. The
// release func must be called exactly once.
func (n *Network) acquireSlot(ctx context.Context, addr string) (func(), error) {
	n.mu.Lock()
	sem, ok := n.sems[addr]
	if !ok {
		sem = make(chan struct{}, DefaultPerConnInflight)
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
	reply, _, err := n.call(ctx, addr, req, false)
	return reply, err
}

// CallBorrowed is Call whose reply may borrow its frame (Caller).
func (n *Network) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	return n.call(ctx, addr, req, true)
}

// call runs the handler, with EncodeWire between two frame round trips:
// the request's, decoded borrowing as a TCP server would and released
// once the handler has returned and its reply is encoded, and the
// reply's, decoded borrowing when borrow is set.
func (n *Network) call(ctx context.Context, addr string, req any, borrow bool) (any, func(), error) {
	n.mu.RLock()
	h, ok := n.handlers[addr]
	n.mu.RUnlock()
	if !ok {
		dropLaid(req)
		return nil, noRelease, fmt.Errorf("transport: no handler at %q", addr)
	}
	if err := ctx.Err(); err != nil {
		dropLaid(req)
		return nil, noRelease, err
	}
	done, err := n.acquireSlot(ctx, addr)
	if err != nil {
		dropLaid(req)
		return nil, noRelease, err
	}
	defer done()
	if !n.EncodeWire {
		if l, ok := req.(*protocol.Laid); ok {
			req, err = l.Message()
			if l.Release(); err != nil {
				return nil, noRelease, err
			}
		}
		reply, err := h.Handle(ctx, req)
		return reply, noRelease, err
	}
	rt, releaseReq, err := n.roundTrip(req, true)
	if err != nil {
		return nil, noRelease, fmt.Errorf("transport: encoding request for %q: %w", addr, err)
	}
	defer releaseReq()
	reply, err := handle(ctx, h, rt)
	if err != nil {
		return nil, noRelease, err
	}
	out, release, err := n.roundTrip(reply, borrow)
	if err != nil {
		return nil, noRelease, fmt.Errorf("transport: encoding reply from %q: %w", addr, err)
	}
	return out, release, nil
}

// PeakFrameBytes reports the largest encoded frame body this network
// has moved. Only populated when EncodeWire is on (without it no
// message is ever encoded).
func (n *Network) PeakFrameBytes() int64 { return n.peakFrame.Load() }

// roundTrip encodes v into a wire frame and decodes it again, as the TCP
// transport would — borrowing when borrow is set — enforcing the same
// frame cap and recording the peak size.
func (n *Network) roundTrip(v any, borrow bool) (any, func(), error) {
	frame, buf, err := encodeFrame(&envelope{Payload: v})
	if err != nil {
		return nil, noRelease, err
	}
	size := int64(len(frame) - 4)
	for {
		prev := n.peakFrame.Load()
		if size <= prev || n.peakFrame.CompareAndSwap(prev, size) {
			break
		}
	}
	heldFrames.Add(1) // the frame is now one read off the wire
	out, release, err := openFrame(buf, len(buf)-len(frame)+4, borrow)
	if err != nil {
		return nil, noRelease, err
	}
	return out.Payload, release, nil
}

// envelope is one frame's content: a payload of a protocol.Messages()
// type (or none), an error string, and an id. ID correlates a reply with
// its request on a multiplexed connection: the client assigns ids
// starting at 1 and the server echoes them. ID 0 marks a
// connection-level message (a protocol-violation error frame), which
// dooms every call in flight on that connection.
type envelope struct {
	ID      uint64
	Payload any
	Err     string
}
