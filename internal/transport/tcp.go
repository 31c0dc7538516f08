package transport

import (
	"context"
	"encoding/binary"
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
// (ownerengine.New's shardCells / prism.Config.ShardCells) — sharding
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

// DefaultPerConnInflight bounds the RPCs in flight on one connection:
// it is the client's pipelining cap and the server's per-connection
// worker-pool width, and the in-process Network's per-address bound. Deep enough that heavy traffic
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
const frameVersion = 4

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
//	uvarint  ID
//	uvarint  len(Err), then the Err bytes
//	         the payload: its type index and value (protocol.Measure)
//
// The payload is measured before anything is written, so a message over
// the cap fails before its buffer is allocated. A laid payload
// (*protocol.Laid, see Lay) is not copied: its header goes into the room
// in front of it, and encodeFrame takes its buffer over, releasing it if
// the frame fails. frame is what goes on the wire; it lies in buf, a
// pooled buffer: hand buf to frameBufs.Put after the last use. Callers on
// a shared connection encode first and take the write lock only for the
// byte copy, so a large frame never blocks cheap ones.
func encodeFrame(env *envelope) (frame, buf []byte, err error) {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(append(hdr[:0], frameVersion), env.ID)
	h = append(binary.AppendUvarint(h, uint64(len(env.Err))), env.Err...)
	if l, ok := env.Payload.(*protocol.Laid); ok {
		return encodeLaid(h, l)
	}
	start := time.Now()
	msg, err := protocol.Measure(env.Payload)
	if err != nil {
		return nil, nil, err
	}
	n := len(h) + msg.Size
	if int64(n) > FrameLimit() {
		return nil, nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	b := frameBufs.Get(4 + n)[:4]
	binary.BigEndian.PutUint32(b, uint32(n))
	b = msg.AppendTo(append(b, h...))
	observeFrame(msg.Label, int64(n), time.Since(start))
	return b, b, nil
}

// encodeLaid frames a laid payload where it lies, behind the frame
// header h.
func encodeLaid(h []byte, l *protocol.Laid) (frame, buf []byte, err error) {
	if 4+len(h) > laidHead {
		panic("transport: a laid payload travels without an error string")
	}
	buf, head := l.Detach()
	heldFrames.Add(-1) // an encoded frame now, no longer a laid one
	n := len(h) + len(buf) - head
	if int64(n) > FrameLimit() {
		frameBufs.Put(buf)
		return nil, nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	at := head - len(h) - 4
	binary.BigEndian.PutUint32(buf[at:], uint32(n))
	copy(buf[at+4:], h)
	observeFrame(l.Label, int64(n), 0)
	return buf[at:], buf, nil
}

// laidHead is the room a laid frame leaves in front of its payload: the
// length prefix, the version byte, the longest request id and the
// length of an empty error string. A laid payload travels without an
// error string.
const laidHead = 4 + 1 + binary.MaxVarintLen64 + 1

// laidFrames lends laid messages their frame buffers (protocol.FramePool),
// counted in heldFrames until they are framed or released.
type laidFrames struct{}

// Frame refuses a payload whose frame would pass the cap even behind the
// shortest header, before anything is allocated.
func (laidFrames) Frame(size, room int) ([]byte, int, error) {
	if n := 3 + size; int64(n) > FrameLimit() {
		return nil, 0, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	heldFrames.Add(1)
	return frameBufs.Get(laidHead + size + room), laidHead, nil
}

func (laidFrames) Release(buf []byte) { putFrame(buf) }

// Lay lays msg out in a frame buffer for n-cell vectors at width w
// (protocol.Lay): its producer writes the reserved vectors straight
// into the frame that will carry them, then calls Finish. A payload over
// the frame cap fails here with ErrFrameTooLarge. A laid message is
// held (HeldFrames) until a Call or a LayingHandler's reply hands it to
// the transport, which sends it without copying and releases it on every
// path, or until its holder releases it.
func Lay(msg any, n, w int) (*protocol.Laid, error) {
	return protocol.Lay(msg, n, w, laidFrames{})
}

// dropLaid releases v if it is a laid message the transport will not
// send.
func dropLaid(v any) {
	if l, ok := v.(*protocol.Laid); ok {
		l.Release()
	}
}

// decodeFrame is encodeFrame's inverse on a frame body (the bytes after
// the length prefix). With borrow set, the payload is decoded by
// protocol.DecodeBorrowing, and aliased reports whether it shares memory
// with body; otherwise nothing in the envelope aliases body.
func decodeFrame(body []byte, borrow bool) (env *envelope, aliased bool, err error) {
	id, rest, err := frameHead(body)
	if err != nil {
		return nil, false, err
	}
	elen, n := binary.Uvarint(rest)
	if n <= 0 || elen > uint64(len(rest)-n) {
		return nil, false, fmt.Errorf("%w: bad error string", ErrCorruptFrame)
	}
	var payload any
	if borrow {
		payload, aliased, err = protocol.DecodeBorrowing(rest[n+int(elen):])
	} else {
		payload, err = protocol.DecodeMessage(rest[n+int(elen):])
	}
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	return &envelope{ID: id, Payload: payload, Err: string(rest[n : n+int(elen)])}, aliased, nil
}

// frameHead checks a frame body's version and reads its request id,
// returning the bytes after it.
func frameHead(body []byte) (id uint64, rest []byte, err error) {
	if len(body) == 0 || body[0] != frameVersion {
		return 0, nil, fmt.Errorf("%w (want %d)", ErrFrameVersion, frameVersion)
	}
	id, n := binary.Uvarint(body[1:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad request id", ErrCorruptFrame)
	}
	return id, body[1+n:], nil
}

// Borrowed frames. Every frame the transport decodes lies in a buffer
// from frameBufs. A borrowing decode leaves a borrowed message's
// full-width vectors pointing into that buffer, so the buffer goes back
// to the pool only when the payload's consumer calls the release it was
// handed; when nothing aliases it, it goes back at once. A buffer nobody
// releases is left to the GC, so no vector ever points into a buffer the
// pool hands out again.
var (
	heldFrames   atomic.Int64 // buffers read or decoded and not yet released
	poisonFrames atomic.Bool  // PoisonReleasedFrames
)

// noRelease is the release of a payload that holds no frame.
func noRelease() {}

// HeldFrames reports how many frame buffers the transport has read or
// decoded and not yet had back: a borrowed payload whose consumer has not
// released it counts until it does. Tests check it falls back to 0.
func HeldFrames() int64 { return heldFrames.Load() }

// PoisonReleasedFrames makes every frame release fill its buffer with
// 0xFF before the buffer goes back to the pool, until restore is called,
// so a vector read after its release reads 0xFF… cells. For tests; it
// applies process-wide.
func PoisonReleasedFrames() (restore func()) {
	prev := poisonFrames.Swap(true)
	return func() { poisonFrames.Store(prev) }
}

// openFrame decodes the frame body buf[off:] — borrowing when borrow is
// set — and returns its envelope with the release of buf, a frame buffer
// counted in heldFrames: a payload that aliases buf holds it until
// release is called (once or more); otherwise buf is already back.
func openFrame(buf []byte, off int, borrow bool) (*envelope, func(), error) {
	env, aliased, err := decodeFrame(buf[off:], borrow)
	if !aliased {
		putFrame(buf)
		return env, noRelease, err
	}
	var once sync.Once
	return env, func() { once.Do(func() { putFrame(buf) }) }, nil
}

// putFrame hands back a frame buffer counted in heldFrames.
func putFrame(buf []byte) {
	if poisonFrames.Load() {
		for i := range buf {
			buf[i] = 0xFF
		}
	}
	heldFrames.Add(-1)
	frameBufs.Put(buf)
}

// writeFrame encodes env and writes it as one frame. The size check
// runs before any byte hits the wire, so an oversized envelope leaves
// the stream untouched.
func writeFrame(w io.Writer, env *envelope) error {
	frame, buf, err := encodeFrame(env)
	if err != nil {
		return err
	}
	defer frameBufs.Put(buf)
	_, err = w.Write(frame)
	return err
}

// readBody reads one length-prefixed frame into a buffer counted in
// heldFrames and returns its body.
func readBody(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > FrameLimit() {
		return nil, fmt.Errorf("%w (%d bytes announced)", ErrFrameTooLarge, n)
	}
	body := frameBufs.Get(int(n))
	heldFrames.Add(1)
	if m, err := io.ReadFull(r, body); err != nil {
		putFrame(body)
		return nil, fmt.Errorf("transport: truncated frame (%d of %d bytes): %w", m, n, err)
	}
	return body, nil
}

// ---- server ----

type serveOptions struct {
	logf func(format string, args ...any)
}

// ServeOption configures Serve.
type ServeOption func(*serveOptions)

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
	o := serveOptions{logf: func(string, ...any) {}}
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
	sem := make(chan struct{}, DefaultPerConnInflight)
	for {
		var req *envelope
		release := noRelease
		body, err := readBody(conn)
		if err == nil {
			req, release, err = openFrame(body, 0, true)
		}
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
			release()
			return
		}
		wg.Add(1)
		go func(req *envelope, release func()) {
			defer wg.Done()
			defer func() { <-sem }()
			out := dispatch(ctx, h, req, o.logf)
			frame, buf, eerr := encodeFrame(out)
			// Handle has returned (or panicked) and its reply, which may
			// alias the request, is encoded: the request frame goes back.
			release()
			if eerr != nil {
				// Nothing touched the wire; downgrade an oversized or
				// unencodable reply to an error envelope the caller can
				// observe instead of a dead stream.
				frame, buf, eerr = encodeFrame(&envelope{ID: req.ID, Err: eerr.Error()})
				if eerr != nil {
					o.logf("transport: serve %s: encoding error reply %d: %v", conn.RemoteAddr(), req.ID, eerr)
					return
				}
			}
			wmu.Lock()
			_, werr := conn.Write(frame)
			wmu.Unlock()
			frameBufs.Put(buf)
			if werr != nil {
				o.logf("transport: serve %s: writing reply %d: %v", conn.RemoteAddr(), req.ID, werr)
			}
		}(req, release)
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
	reply, err := handle(ctx, h, req.Payload)
	if err != nil {
		return &envelope{ID: req.ID, Err: err.Error()}
	}
	return &envelope{ID: req.ID, Payload: reply}
}

// handle runs h on req through HandleLaid where h has it, so the reply
// may be a laid frame.
func handle(ctx context.Context, h Handler, req any) (any, error) {
	if lh, ok := h.(LayingHandler); ok {
		return lh.HandleLaid(ctx, req)
	}
	return h.Handle(ctx, req)
}

// ---- client ----

// TCPClient is a Caller that maps logical addresses to host:port targets
// and maintains one persistent multiplexed connection per target: any
// number of calls to the same target share the connection, each tagged
// with a request id, with replies demultiplexed as they arrive (in any
// order). Distinct targets dial and fail independently.
type TCPClient struct {
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
	sem  chan struct{} // bounds RPCs in flight (cap DefaultPerConnInflight)
	wtok chan struct{} // write token (cap 1): one frame at a time

	mu       sync.Mutex
	nextID   uint64
	pending  map[uint64]chan []byte // reply frame bodies, by request id
	closeErr error                  // set before done closes
	done     chan struct{}          // closed when the connection fails
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

// NewTCPClient builds a client over an address book.
func NewTCPClient(book map[string]string) *TCPClient {
	b := make(map[string]string, len(book))
	for k, v := range book {
		b[k] = v
	}
	return &TCPClient{
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
	reply, _, err := c.call(ctx, addr, req, false)
	return reply, err
}

// CallBorrowed is Call whose reply may borrow its frame (Caller).
func (c *TCPClient) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	return c.call(ctx, addr, req, true)
}

func (c *TCPClient) call(ctx context.Context, addr string, req any, borrow bool) (any, func(), error) {
	owned := true // a laid req is ours to release until encodeFrame takes it
	defer func() {
		if owned {
			dropLaid(req)
		}
	}()
	target, ok := c.lookup(addr)
	if !ok {
		return nil, noRelease, fmt.Errorf("transport: unknown address %q", addr)
	}
	if err := ctx.Err(); err != nil {
		return nil, noRelease, err
	}
	tc, err := c.conn(ctx, addr, target)
	if err != nil {
		return nil, noRelease, err
	}

	// Claim an in-flight slot.
	select {
	case tc.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, noRelease, ctx.Err()
	case <-tc.done:
		return nil, noRelease, fmt.Errorf("transport: call %q: %w", addr, tc.closeErr)
	}
	defer func() { <-tc.sem }()

	// Register the reply channel before the request can hit the wire.
	tc.mu.Lock()
	if tc.pending == nil {
		tc.mu.Unlock()
		return nil, noRelease, fmt.Errorf("transport: call %q: %w", addr, tc.closeErr)
	}
	tc.nextID++
	id := tc.nextID
	ch := make(chan []byte, 1)
	tc.pending[id] = ch
	tc.mu.Unlock()
	// unregister abandons the call. The demux routes under tc.mu, so a
	// reply is either in ch already or will find no call and be released.
	unregister := func() {
		tc.mu.Lock()
		delete(tc.pending, id)
		tc.mu.Unlock()
		select {
		case body := <-ch:
			putFrame(body)
		default:
		}
	}

	// Encode outside the write token so a large request never blocks
	// other callers' sends. An unencodable or oversized request is
	// rejected here, before any byte touches the shared stream.
	owned = false
	frame, buf, err := encodeFrame(&envelope{ID: id, Payload: req})
	if err != nil {
		unregister()
		return nil, noRelease, fmt.Errorf("transport: send to %q: %w", addr, err)
	}

	// Write the request frame, holding the write token.
	select {
	case tc.wtok <- struct{}{}:
	case <-ctx.Done():
		frameBufs.Put(buf)
		unregister()
		return nil, noRelease, ctx.Err()
	case <-tc.done:
		frameBufs.Put(buf)
		unregister()
		return nil, noRelease, fmt.Errorf("transport: send to %q: %w", addr, tc.closeErr)
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
	frameBufs.Put(buf)
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
			return nil, noRelease, ctx.Err()
		}
		c.fail(addr, tc, werr)
		return nil, noRelease, fmt.Errorf("transport: send to %q: %w", addr, werr)
	}

	// Await the demultiplexed reply frame and decode it here, off the
	// demux goroutine.
	open := func(body []byte) (any, func(), error) {
		env, release, err := openFrame(body, 0, borrow)
		if err != nil {
			return nil, noRelease, fmt.Errorf("transport: receive from %q: %w", addr, err)
		}
		if env.Err != "" {
			release()
			return nil, noRelease, errors.New(env.Err)
		}
		return env.Payload, release, nil
	}
	select {
	case body := <-ch:
		return open(body)
	case <-ctx.Done():
		unregister()
		return nil, noRelease, ctx.Err()
	case <-tc.done:
		// The reply may have been delivered just before the connection
		// failed; a completed RPC beats the connection's error.
		select {
		case body := <-ch:
			return open(body)
		default:
			return nil, noRelease, fmt.Errorf("transport: receive from %q: %w", addr, tc.closeErr)
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
		sem:     make(chan struct{}, DefaultPerConnInflight),
		wtok:    make(chan struct{}, 1),
		pending: make(map[uint64]chan []byte),
		done:    make(chan struct{}),
	}
	go c.readLoop(addr, tc)
	return tc, nil
}

// readLoop is the per-connection demultiplexer: it routes each reply
// frame, undecoded, to the pending call registered under its id, which
// decodes it. A reply for an id no longer pending (a cancelled call) is
// released unread. A read error, a frame of another version — or an id-0
// connection-level error frame from the server — fails the connection
// and with it every call still in flight.
func (c *TCPClient) readLoop(addr string, tc *tcpConn) {
	for {
		body, err := readBody(tc.conn)
		if err != nil {
			c.fail(addr, tc, err)
			return
		}
		id, _, err := frameHead(body)
		if err != nil || id == 0 {
			env, _, err := openFrame(body, 0, false) // frameHead's error again, or the id-0 frame's
			if err == nil {
				err = errors.New("transport: connection-level error frame without message")
				if env.Err != "" {
					err = errors.New(env.Err)
				}
			}
			c.fail(addr, tc, err)
			return
		}
		tc.mu.Lock()
		ch := tc.pending[id]
		delete(tc.pending, id)
		if ch != nil {
			ch <- body // buffered; never blocks the demux loop
		}
		tc.mu.Unlock()
		if ch == nil {
			putFrame(body)
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
