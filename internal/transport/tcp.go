package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/protocol"
	"prism/internal/slicepool"
)

// MaxFrameBytes is the default cap on one wire frame's body (what
// follows the 4-byte big-endian length prefix). A peer announcing a larger
// frame is cut off before any payload is read, so a corrupt or hostile
// peer cannot force an arbitrary allocation. 256 MiB holds the largest
// legal monolithic message at the paper's scales (a 20M-cell Shamir
// column is 160 MB); domains beyond that must shard their exchanges
// (ownerengine.SetShardCells / prism.Config.ShardCells) — sharding
// bounds every frame by the shard size regardless of the domain.
const MaxFrameBytes = 256 << 20

// frameLimit is the active cap, read on every encode/decode. It exists
// so tests can exercise the cap without gigabyte allocations and so
// embedders can tighten it below the default.
var frameLimit atomic.Int64

func init() { frameLimit.Store(MaxFrameBytes) }

// FrameLimit returns the active per-frame byte cap.
func FrameLimit() int64 { return frameLimit.Load() }

// SetFrameLimit changes the active per-frame byte cap and returns a
// function restoring the previous value. n <= 0 restores the default.
// Intended for tests (shrinking the cap to provoke ErrFrameTooLarge
// cheaply) and for deployments that want a tighter bound than the
// 256 MiB default; it applies process-wide, including to frames already
// in flight on live connections.
func SetFrameLimit(n int64) (restore func()) {
	if n <= 0 {
		n = MaxFrameBytes
	}
	prev := frameLimit.Swap(n)
	return func() { frameLimit.Store(prev) }
}

// DefaultPerConnInflight is the default bound on RPCs in flight on one
// connection: the client's pipelining cap and the server's
// per-connection worker-pool width. Deep enough that heavy traffic
// pipelines freely, bounded so one peer cannot monopolise a server.
const DefaultPerConnInflight = 32

// ErrFrameTooLarge is returned when a peer announces a frame above
// MaxFrameBytes, or when a caller tries to send one.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// errClientClosed fails calls pending on a connection torn down by
// TCPClient.Close.
var errClientClosed = errors.New("transport: client closed")

// frameVersion is the first byte of every frame body and names its
// layout, so a peer built for another layout is refused with
// ErrFrameVersion instead of being misparsed.
const frameVersion = 1

// bodyHeader is the fixed start of a frame body — version byte and
// envelope length — and framePrefix that plus the frame's length prefix:
// everything ahead of the gob envelope.
const (
	bodyHeader  = 1 + 4
	framePrefix = 4 + bodyHeader
)

// ErrFrameVersion is returned for a frame whose version byte this build
// does not speak: the peer runs a different wire format.
var ErrFrameVersion = errors.New("transport: unsupported frame version")

// ErrCorruptFrame is returned for a frame of the right version whose
// body does not parse.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// frameBufs recycles frame buffers.
var frameBufs slicepool.Pool[byte]

// encodeFrame encodes env into one self-contained length-prefixed frame,
// the only wire format of both the TCP transport and Network.EncodeWire:
//
//	4 bytes  body length, big-endian (everything below)
//	1 byte   frameVersion
//	4 bytes  envelope length, big-endian
//	         gob(envelope), the payload's bulk vectors detached
//	         slab section: those vectors, raw (protocol.Detach)
//
// The slab section's size is known before anything is written, so a
// message over the cap fails before its buffer is allocated. The frame
// comes from the pool: hand it to frameBufs.Put after the last use.
// Callers on a shared connection encode first and take the write lock
// only for the byte copy, so a large frame never blocks cheap ones.
func encodeFrame(env *envelope) ([]byte, error) {
	start := time.Now()
	header, slabs := protocol.Detach(env.Payload)
	if n := int64(bodyHeader) + int64(slabs.Size()); n > FrameLimit() {
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	const envelopeGuess = 1 << 10 // a regrow, not an error, when short
	buf := bytes.NewBuffer(frameBufs.Get(framePrefix + envelopeGuess + slabs.Size())[:framePrefix])
	if err := gob.NewEncoder(buf).Encode(&envelope{ID: env.ID, Payload: header, Err: env.Err}); err != nil {
		frameBufs.Put(buf.Bytes())
		return nil, err
	}
	b := buf.Bytes()
	n := len(b) - 4 + slabs.Size()
	if int64(n) > FrameLimit() {
		frameBufs.Put(b)
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(n))
	b[4] = frameVersion
	binary.BigEndian.PutUint32(b[5:framePrefix], uint32(len(b)-framePrefix))
	b = slabs.AppendTo(b)
	observeFrame(slabs.Label, int64(n), time.Since(start))
	return b, nil
}

// decodeFrame is encodeFrame's inverse on a frame body (the bytes after
// the length prefix). The returned envelope shares no memory with body.
func decodeFrame(body []byte) (*envelope, error) {
	if len(body) == 0 || body[0] != frameVersion {
		return nil, fmt.Errorf("%w (want %d)", ErrFrameVersion, frameVersion)
	}
	if len(body) < bodyHeader {
		return nil, fmt.Errorf("%w: short header", ErrCorruptFrame)
	}
	rest := body[bodyHeader:]
	hlen := binary.BigEndian.Uint32(body[1:bodyHeader])
	if uint64(hlen) > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: envelope length %d exceeds the body", ErrCorruptFrame, hlen)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(rest[:hlen])).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	payload, err := protocol.Attach(env.Payload, rest[hlen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	env.Payload = payload
	return &env, nil
}

// writeFrame encodes env and writes it as one frame. The size check
// runs before any byte hits the wire, so an oversized envelope leaves
// the stream untouched.
func writeFrame(w io.Writer, env *envelope) error {
	b, err := encodeFrame(env)
	if err != nil {
		return err
	}
	defer frameBufs.Put(b)
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed frame and decodes the envelope.
func readFrame(r io.Reader) (*envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > FrameLimit() {
		return nil, fmt.Errorf("%w (%d bytes announced)", ErrFrameTooLarge, n)
	}
	body := frameBufs.Get(int(n))
	defer frameBufs.Put(body)
	if m, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame (%d of %d bytes): %w", m, n, err)
	}
	return decodeFrame(body)
}

// ---- server ----

type serveOptions struct {
	workers int
	logf    func(format string, args ...any)
}

// ServeOption configures Serve.
type ServeOption func(*serveOptions)

// WithPerConnWorkers sets the per-connection worker-pool width: how many
// requests from one connection may execute simultaneously. Excess
// requests queue in arrival order (read-side backpressure). Default
// DefaultPerConnInflight.
func WithPerConnWorkers(n int) ServeOption {
	return func(o *serveOptions) {
		if n > 0 {
			o.workers = n
		}
	}
}

// WithLogf installs a logger for connection-level failures the request
// path cannot report to any caller (reply-write errors, handler panics).
// Default: discard.
func WithLogf(f func(format string, args ...any)) ServeOption {
	return func(o *serveOptions) {
		if f != nil {
			o.logf = f
		}
	}
}

// Serve accepts connections on ln and serves requests with h until the
// context is cancelled or the listener is closed. Each connection
// carries a multiplexed stream of length-prefixed frames: requests
// are dispatched to a bounded worker pool as they decode, so replies may
// return out of order (each echoes its request id).
func Serve(ctx context.Context, ln net.Listener, h Handler, opts ...ServeOption) error {
	o := serveOptions{workers: DefaultPerConnInflight, logf: func(string, ...any) {}}
	for _, fn := range opts {
		fn(&o)
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		go serveConn(ctx, conn, h, o)
	}
}

func serveConn(ctx context.Context, conn net.Conn, h Handler, o serveOptions) {
	// Cancelling ctx (server shutdown) or exiting the read loop (peer
	// gone) stops in-flight handlers; workers drain before the conn
	// closes so completed replies still flush.
	ctx, cancel := context.WithCancel(ctx)
	defer conn.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	unblock := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })
	defer unblock()

	var wmu sync.Mutex // one reply frame at a time
	sem := make(chan struct{}, o.workers)
	for {
		req, err := readFrame(conn)
		if err != nil {
			// Oversized announcements and frames of another wire version
			// get an explicit error frame so the peer learns why; then the
			// connection is dropped (the stream position is unrecoverable).
			// Everything else (EOF, truncation) just drops the per-client
			// connection.
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameVersion) {
				o.logf("transport: serve %s: dropping connection: %v", conn.RemoteAddr(), err)
				wmu.Lock()
				werr := writeFrame(conn, &envelope{Err: err.Error()})
				wmu.Unlock()
				if werr != nil {
					o.logf("transport: serve %s: notifying peer: %v", conn.RemoteAddr(), werr)
				}
			}
			return
		}
		// Backpressure: when all workers are busy the read loop parks
		// here, leaving further requests in the kernel buffer.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		wg.Add(1)
		go func(req *envelope) {
			defer wg.Done()
			defer func() { <-sem }()
			out := dispatch(ctx, h, req, o.logf)
			frame, eerr := encodeFrame(out)
			if eerr != nil {
				// Nothing touched the wire; downgrade an oversized or
				// unencodable reply to an error envelope the caller can
				// observe instead of a dead stream.
				frame, eerr = encodeFrame(&envelope{ID: req.ID, Err: eerr.Error()})
				if eerr != nil {
					o.logf("transport: serve %s: encoding error reply %d: %v", conn.RemoteAddr(), req.ID, eerr)
					return
				}
			}
			wmu.Lock()
			_, werr := conn.Write(frame)
			wmu.Unlock()
			frameBufs.Put(frame)
			if werr != nil {
				o.logf("transport: serve %s: writing reply %d: %v", conn.RemoteAddr(), req.ID, werr)
			}
		}(req)
	}
}

// dispatch runs the handler for one request, converting errors — and
// panics, so one bad request cannot kill a connection shared by many
// callers — into error envelopes tagged with the request id.
func dispatch(ctx context.Context, h Handler, req *envelope, logf func(string, ...any)) (out *envelope) {
	defer func() {
		if p := recover(); p != nil {
			logf("transport: handler panic on request %d: %v\n%s", req.ID, p, debug.Stack())
			out = &envelope{ID: req.ID, Err: fmt.Sprintf("transport: handler panic: %v", p)}
		}
	}()
	reply, err := h.Handle(ctx, req.Payload)
	if err != nil {
		return &envelope{ID: req.ID, Err: err.Error()}
	}
	return &envelope{ID: req.ID, Payload: reply}
}

// ---- client ----

// ClientOptions tunes a TCPClient.
type ClientOptions struct {
	// PerConnInflight bounds concurrent RPCs multiplexed on one
	// connection; callers beyond it queue (context-aware) for a slot.
	// 1 reproduces the serialised one-exchange-at-a-time wire behaviour.
	// 0 → DefaultPerConnInflight.
	PerConnInflight int
}

// TCPClient is a Caller that maps logical addresses to host:port targets
// and maintains one persistent multiplexed connection per target: any
// number of calls to the same target share the connection, each tagged
// with a request id, with replies demultiplexed as they arrive (in any
// order). Distinct targets dial and fail independently.
type TCPClient struct {
	opts   ClientOptions
	mu     sync.Mutex
	book   map[string]string // logical addr → host:port
	conns  map[string]*tcpConn
	dials  map[string]*pendingDial
	closed bool
}

// tcpConn is one multiplexed connection. Frame writes serialise on wtok
// (a channel, so queued writers can abandon the wait when their context
// dies); a single reader goroutine routes reply envelopes to the pending
// call registered under their id.
type tcpConn struct {
	conn net.Conn
	sem  chan struct{} // bounds RPCs in flight (cap PerConnInflight)
	wtok chan struct{} // write token (cap 1): one frame at a time

	mu       sync.Mutex
	nextID   uint64
	pending  map[uint64]chan *envelope
	closeErr error         // set before done closes
	done     chan struct{} // closed when the connection fails
}

// pendingDial coalesces concurrent dials of the same address so one
// unreachable target is dialled once, not once per queued caller — and,
// because the dial runs outside the client lock, never delays calls to
// other targets.
type pendingDial struct {
	done chan struct{}
	tc   *tcpConn
	err  error
}

// NewTCPClient builds a client over an address book with default options.
func NewTCPClient(book map[string]string) *TCPClient {
	return NewTCPClientOpts(book, ClientOptions{})
}

// NewTCPClientOpts builds a client over an address book.
func NewTCPClientOpts(book map[string]string, opts ClientOptions) *TCPClient {
	if opts.PerConnInflight <= 0 {
		opts.PerConnInflight = DefaultPerConnInflight
	}
	b := make(map[string]string, len(book))
	for k, v := range book {
		b[k] = v
	}
	return &TCPClient{
		opts:  opts,
		book:  b,
		conns: make(map[string]*tcpConn),
		dials: make(map[string]*pendingDial),
	}
}

// Call sends req to the logical address and awaits the reply. Many calls
// to one address proceed concurrently on the shared connection (up to
// the per-connection in-flight bound). Cancelling ctx while waiting for
// the reply abandons only this call — the connection and every other
// in-flight call on it are untouched; the late reply is discarded on
// arrival. Only a cancellation that interrupts the request frame
// mid-write poisons the stream and drops the connection.
func (c *TCPClient) Call(ctx context.Context, addr string, req any) (any, error) {
	target, ok := c.lookup(addr)
	if !ok {
		return nil, fmt.Errorf("transport: unknown address %q", addr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tc, err := c.conn(ctx, addr, target)
	if err != nil {
		return nil, err
	}

	// Claim an in-flight slot.
	select {
	case tc.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-tc.done:
		return nil, fmt.Errorf("transport: call %q: %w", addr, tc.closeErr)
	}
	defer func() { <-tc.sem }()

	// Register the reply channel before the request can hit the wire.
	tc.mu.Lock()
	if tc.pending == nil {
		tc.mu.Unlock()
		return nil, fmt.Errorf("transport: call %q: %w", addr, tc.closeErr)
	}
	tc.nextID++
	id := tc.nextID
	ch := make(chan *envelope, 1)
	tc.pending[id] = ch
	tc.mu.Unlock()
	unregister := func() {
		tc.mu.Lock()
		delete(tc.pending, id)
		tc.mu.Unlock()
	}

	// Encode outside the write token so a large request never blocks
	// other callers' sends. An unencodable or oversized request is
	// rejected here, before any byte touches the shared stream.
	frame, err := encodeFrame(&envelope{ID: id, Payload: req})
	if err != nil {
		unregister()
		return nil, fmt.Errorf("transport: send to %q: %w", addr, err)
	}

	// Write the request frame, holding the write token.
	select {
	case tc.wtok <- struct{}{}:
	case <-ctx.Done():
		frameBufs.Put(frame)
		unregister()
		return nil, ctx.Err()
	case <-tc.done:
		frameBufs.Put(frame)
		unregister()
		return nil, fmt.Errorf("transport: send to %q: %w", addr, tc.closeErr)
	}
	// A cancellation landing mid-write forces an immediate write
	// deadline; if it actually interrupted the frame (write error), the
	// half-written frame poisons the shared stream and the connection is
	// dropped. A cancellation that lost the race to a completed write
	// leaves the stream intact: clear the deadline and carry on.
	var wdmu sync.Mutex // orders the AfterFunc against the post-write reset
	written := false
	stop := context.AfterFunc(ctx, func() {
		wdmu.Lock()
		defer wdmu.Unlock()
		if !written {
			tc.conn.SetWriteDeadline(time.Now())
		}
	})
	_, werr := tc.conn.Write(frame)
	frameBufs.Put(frame)
	wdmu.Lock()
	written = true
	wdmu.Unlock()
	interrupted := !stop()
	if interrupted && werr == nil {
		// Still holding the write token, so no other writer can observe
		// the stale deadline between the AfterFunc and this reset.
		tc.conn.SetWriteDeadline(time.Time{})
	}
	<-tc.wtok
	if werr != nil {
		unregister()
		if interrupted {
			c.fail(addr, tc, fmt.Errorf("request frame interrupted by cancellation: %w", context.Cause(ctx)))
			return nil, ctx.Err()
		}
		c.fail(addr, tc, werr)
		return nil, fmt.Errorf("transport: send to %q: %w", addr, werr)
	}

	// Await the demultiplexed reply.
	unwrap := func(env *envelope) (any, error) {
		if env.Err != "" {
			return nil, errors.New(env.Err)
		}
		return env.Payload, nil
	}
	select {
	case env := <-ch:
		return unwrap(env)
	case <-ctx.Done():
		unregister()
		return nil, ctx.Err()
	case <-tc.done:
		// The reply may have been delivered just before the connection
		// failed; a completed RPC beats the connection's error.
		select {
		case env := <-ch:
			return unwrap(env)
		default:
			return nil, fmt.Errorf("transport: receive from %q: %w", addr, tc.closeErr)
		}
	}
}

func (c *TCPClient) lookup(addr string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.book[addr]
	return t, ok
}

// conn returns the live connection for addr, dialling if needed. The
// dial itself runs outside the client lock — one slow or unreachable
// target never blocks calls to every other — with concurrent callers of
// the same address coalesced onto a single dial attempt.
func (c *TCPClient) conn(ctx context.Context, addr, target string) (*tcpConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("transport: call %q: %w", addr, errClientClosed)
		}
		if tc, ok := c.conns[addr]; ok {
			c.mu.Unlock()
			return tc, nil
		}
		if pd, ok := c.dials[addr]; ok {
			c.mu.Unlock()
			select {
			case <-pd.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if pd.err == nil {
				return pd.tc, nil
			}
			// The coalesced dial failed under another call's context;
			// retry under our own rather than inheriting its error.
			continue
		}
		pd := &pendingDial{done: make(chan struct{})}
		c.dials[addr] = pd
		c.mu.Unlock()

		tc, err := c.dial(ctx, addr, target)
		c.mu.Lock()
		delete(c.dials, addr)
		if err == nil && c.closed {
			// Close raced the dial: don't leak the fresh connection (and
			// its demux goroutine) into a client nobody will close again.
			err = errClientClosed
		}
		if err == nil {
			c.conns[addr] = tc
		}
		c.mu.Unlock()
		if errors.Is(err, errClientClosed) && tc != nil {
			c.fail(addr, tc, errClientClosed)
			tc = nil
		}
		pd.tc, pd.err = tc, err
		close(pd.done)
		if err != nil {
			return nil, fmt.Errorf("transport: dial %q (%s): %w", addr, target, err)
		}
		return tc, nil
	}
}

// dial connects to target and starts the connection's demux reader.
func (c *TCPClient) dial(ctx context.Context, addr, target string) (*tcpConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", target)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{
		conn:    conn,
		sem:     make(chan struct{}, c.opts.PerConnInflight),
		wtok:    make(chan struct{}, 1),
		pending: make(map[uint64]chan *envelope),
		done:    make(chan struct{}),
	}
	go c.readLoop(addr, tc)
	return tc, nil
}

// readLoop is the per-connection demultiplexer: it routes each reply to
// the pending call registered under its id. Replies for ids no longer
// pending (cancelled calls) are discarded. A read error — or an id-0
// connection-level error frame from the server — fails the connection
// and with it every call still in flight.
func (c *TCPClient) readLoop(addr string, tc *tcpConn) {
	for {
		env, err := readFrame(tc.conn)
		if err != nil {
			c.fail(addr, tc, err)
			return
		}
		if env.ID == 0 {
			cause := errors.New("transport: connection-level error frame without message")
			if env.Err != "" {
				cause = errors.New(env.Err)
			}
			c.fail(addr, tc, cause)
			return
		}
		tc.mu.Lock()
		ch := tc.pending[env.ID]
		delete(tc.pending, env.ID)
		tc.mu.Unlock()
		if ch != nil {
			ch <- env // buffered; never blocks the demux loop
		}
	}
}

// fail tears down tc — closing the socket, unregistering it (unless a
// replacement already took the address), and failing every pending call
// with cause. Idempotent across the racing paths that can observe a
// connection error (reader, writers, Close).
func (c *TCPClient) fail(addr string, tc *tcpConn, cause error) {
	c.mu.Lock()
	if c.conns[addr] == tc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()

	tc.mu.Lock()
	already := tc.pending == nil
	if !already {
		tc.closeErr = cause
		tc.pending = nil // rejects future registrations
	}
	tc.mu.Unlock()
	if already {
		return
	}
	tc.conn.Close()
	close(tc.done) // wakes every call parked on a reply
}

// Close tears down all connections, failing any calls still in flight.
// Later Calls — and dials already in flight — fail with a closed-client
// error rather than opening fresh connections.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := make(map[string]*tcpConn, len(c.conns))
	for addr, tc := range c.conns {
		conns[addr] = tc
	}
	c.mu.Unlock()
	for addr, tc := range conns {
		c.fail(addr, tc, errClientClosed)
	}
	return nil
}
