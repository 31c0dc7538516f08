package gateway

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"prism/internal/ownerengine"
	"prism/internal/slicepool"
)

// Config sizes one gateway instance.
type Config struct {
	// Backends is the owner pool (required, at least one).
	Backends []Backend

	// Rate/Burst/Queue are the admission-control knobs: per-tenant
	// token-bucket rate (queries/sec; <= 0 disables limiting), bucket
	// capacity (0 → max(1, Rate)), and the shared bounded waiting
	// queue's depth.
	Rate  float64
	Burst float64
	Queue int

	// DefaultTimeout bounds queries whose submit carries no timeout_ms.
	// Zero means 30s — the front tier never runs an unbounded query.
	DefaultTimeout time.Duration

	// ProbeInterval paces the background owner-pool liveness sweep
	// (zero means 2s).
	ProbeInterval time.Duration

	// Logf receives connection-level noise (accept errors, broken
	// frames). Nil discards.
	Logf func(format string, args ...any)
}

// Gateway is one stateless front-tier instance. See the package comment
// for the architecture.
type Gateway struct {
	cfg  Config
	pool *Pool
	adm  *Admission
	logf func(string, ...any)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// New builds a gateway over cfg.Backends.
func New(cfg Config) (*Gateway, error) {
	pool, err := NewPool(cfg.Backends)
	if err != nil {
		return nil, err
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Gateway{
		cfg:   cfg,
		pool:  pool,
		adm:   NewAdmission(cfg.Rate, cfg.Burst, cfg.Queue),
		logf:  logf,
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Pool exposes the owner pool (health inspection, tests).
func (g *Gateway) Pool() *Pool { return g.pool }

// QueueDepth reports the admission queue's current depth.
func (g *Gateway) QueueDepth() int { return g.adm.QueueDepth() }

// Serve accepts front-protocol connections on ln until ctx is
// cancelled, then closes the listener and every live connection and
// waits for the handlers to drain. It owns ln.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	probeCtx, stopProbe := context.WithCancel(context.WithoutCancel(ctx))
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		tick := time.NewTicker(g.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-probeCtx.Done():
				return
			case <-tick.C:
				g.pool.Probe(probeCtx)
			}
		}
	}()
	go func() {
		<-ctx.Done()
		ln.Close()
		g.mu.Lock()
		for c := range g.conns {
			c.Close()
		}
		g.mu.Unlock()
	}()
	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if ctx.Err() == nil {
				err = aerr
			}
			break
		}
		g.mu.Lock()
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handleConn(ctx, conn)
			g.mu.Lock()
			delete(g.conns, conn)
			g.mu.Unlock()
		}()
	}
	stopProbe()
	probeWG.Wait()
	g.wg.Wait()
	return err
}

// pending is one submitted query's connection-scoped state. Tickets are
// connection-scoped on purpose — the stateless-tier contract: when the
// submitting connection dies, its in-flight queries are cancelled and
// their results dropped, so a gateway never accumulates results nobody
// will collect.
type pending struct {
	op        string
	submitted time.Time
	queuedFor time.Duration
	cancel    context.CancelFunc

	done     chan struct{} // closed when res/err/finished are set
	res      *Result
	err      error
	finished time.Time
}

// frontConn is one client connection's state.
type frontConn struct {
	g    *Gateway
	conn net.Conn
	ctx  context.Context // cancelled when the connection dies

	wmu sync.Mutex // serialises reply frames from handler goroutines

	mu      sync.Mutex
	tickets map[string]*pending
	seq     uint64
}

func (g *Gateway) handleConn(ctx context.Context, conn net.Conn) {
	mConnections.Add(1)
	defer mConnections.Add(-1)
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	fc := &frontConn{
		g:       g,
		conn:    conn,
		ctx:     connCtx,
		tickets: make(map[string]*pending),
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		frame, err := ReadFrame(br, MaxFrontFrame)
		if err != nil {
			// Framing is gone (EOF, truncation, hostile length): there is
			// no boundary to resync on, so answer what we can and drop
			// the connection. cancel() then reels in the connection's
			// in-flight queries.
			if errors.Is(err, ErrFrameTooBig) {
				mBadFrames.Inc()
				fc.reply(&Response{Code: CodeBadRequest, Err: err.Error()})
			}
			return
		}
		mFrameBytes.Observe(float64(len(frame)))
		req, err := DecodeRequest(frame)
		if err != nil {
			// The frame parsed as a frame but not as a request: the
			// stream is still framed, so report and keep serving.
			mBadFrames.Inc()
			fc.reply(&Response{Code: CodeBadRequest, Err: err.Error()})
			continue
		}
		switch req.Op {
		case OpPing:
			fc.reply(&Response{ID: req.ID, OK: true})
		case OpSubmit:
			fc.handleSubmit(req)
		case OpPoll:
			fc.handlePoll(req)
		}
	}
}

// replyBufs recycles reply frames.
var replyBufs slicepool.Pool[byte]

// reply writes one response frame (goroutine-safe), encoded behind its
// length in one pooled buffer and sent in one Write. A body over
// MaxReplyFrame goes out as a too-large error for the same request.
func (fc *frontConn) reply(resp *Response) {
	frame := appendResponse(replyBufs.Get(replySize(resp))[:4], resp)
	if n := len(frame) - 4; n > MaxReplyFrame {
		err := fmt.Errorf("%w: reply of %d bytes > %d", ErrFrameTooBig, n, MaxReplyFrame)
		fc.g.logf("gateway: answering %s: %v", CodeTooLarge, err)
		frame = appendResponse(frame[:4], &Response{ID: resp.ID, Done: resp.Done, Code: CodeTooLarge, Err: err.Error()})
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	fc.wmu.Lock()
	_, err := fc.conn.Write(frame)
	fc.wmu.Unlock()
	replyBufs.Put(frame)
	if err != nil {
		fc.g.logf("gateway: writing reply: %v", err)
	}
}

func (fc *frontConn) handleSubmit(req *Request) {
	// Kind and arity are checked here, against the one kind table, so a
	// malformed query bounces before burning an admission token.
	kind, ok := ownerengine.KindByName(req.Query)
	if !ok {
		fc.reply(&Response{ID: req.ID, Code: CodeBadRequest, Err: fmt.Sprintf("gateway: unknown query kind %q", req.Query)})
		return
	}
	if err := ownerengine.CheckCols(kind, req.Cols); err != nil {
		fc.reply(&Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()})
		return
	}
	timeout := fc.g.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	deadline := time.Now().Add(timeout)

	// The admission decision is synchronous: a token now, a bounded
	// queued wait, or a typed shed — the client learns which from the
	// submit reply itself, never by waiting.
	wait, err := fc.g.adm.reserve(req.Tenant, deadline)
	if err != nil {
		mShed.Inc(ShedReason(err))
		fc.reply(&Response{ID: req.ID, Code: CodeShed, Err: err.Error()})
		return
	}
	mAccepted.Inc(req.Query)

	qCtx, qCancel := context.WithDeadline(fc.ctx, deadline)
	p := &pending{
		op:        req.Query,
		submitted: time.Now(),
		queuedFor: wait,
		cancel:    qCancel,
		done:      make(chan struct{}),
	}
	fc.mu.Lock()
	fc.seq++
	ticket := fmt.Sprintf("q%d", fc.seq)
	fc.tickets[ticket] = p
	fc.mu.Unlock()

	q := Query{Kind: kind, Cols: req.Cols}
	fc.g.wg.Add(1)
	go func() {
		defer fc.g.wg.Done()
		fc.g.runQuery(qCtx, req.Tenant, q, p)
	}()
	fc.reply(&Response{ID: req.ID, OK: true, Ticket: ticket})
}

// runQuery serves one admitted query: sit out the reservation's queued
// wait, execute on the pool, publish the outcome.
func (g *Gateway) runQuery(ctx context.Context, tenant string, q Query, p *pending) {
	defer p.cancel()
	var res *Result
	err := g.adm.await(ctx, tenant, p.queuedFor)
	if err == nil {
		if p.queuedFor > 0 {
			mQueueSeconds.Observe(p.queuedFor.Seconds())
		}
		res, err = g.pool.Exec(ctx, q)
	}
	p.res, p.err, p.finished = res, err, time.Now()
	mFrontSeconds.Observe(p.op, p.finished.Sub(p.submitted).Seconds())
	close(p.done)
}

func (fc *frontConn) handlePoll(req *Request) {
	fc.mu.Lock()
	p := fc.tickets[req.Ticket]
	fc.mu.Unlock()
	if p == nil {
		fc.reply(&Response{ID: req.ID, Code: CodeUnknownTicket, Err: fmt.Sprintf("gateway: unknown ticket %q", req.Ticket)})
		return
	}
	select {
	case <-p.done:
		fc.deliver(req, p)
		return
	default:
	}
	if req.WaitMS <= 0 {
		fc.reply(&Response{ID: req.ID, OK: true, Done: false})
		return
	}
	// A waiting poll parks off the read loop so the connection stays
	// responsive to further frames (e.g. more submits to pipeline).
	fc.g.wg.Add(1)
	go func() {
		defer fc.g.wg.Done()
		timer := time.NewTimer(time.Duration(req.WaitMS) * time.Millisecond)
		defer timer.Stop()
		select {
		case <-p.done:
			fc.deliver(req, p)
		case <-timer.C:
			fc.reply(&Response{ID: req.ID, OK: true, Done: false})
		case <-fc.ctx.Done():
		}
	}()
}

// deliver sends a finished query's result and retires its ticket
// (one-shot delivery, so the connection's result table cannot grow past
// its in-flight queries).
func (fc *frontConn) deliver(req *Request, p *pending) {
	fc.mu.Lock()
	delete(fc.tickets, req.Ticket)
	fc.mu.Unlock()
	resp := &Response{ID: req.ID, Done: true}
	resp.QueueMS = p.queuedFor.Milliseconds()
	resp.ExecMS = p.finished.Sub(p.submitted).Milliseconds() - resp.QueueMS
	if p.err != nil {
		resp.Code, resp.Err = classify(p.err), p.err.Error()
	} else {
		resp.OK = true
		resp.Cells = p.res.Cells
		resp.Count = p.res.Count
		resp.Sums = p.res.Sums
		resp.Counts = p.res.Counts
		if p.res.Extreme != nil {
			resp.Extreme = make(map[uint64]uint64, len(p.res.Extreme))
			for cell, ext := range p.res.Extreme {
				resp.Extreme[cell] = ext.Value
			}
		}
		if p.res.Global != nil {
			resp.Global = &p.res.Global.Value
		}
	}
	fc.reply(resp)
}

// classify maps a query failure to its front-protocol code: the typed
// taxonomy clients branch on. Deadline expiry is "timeout" — the
// shed-not-hang contract's other half: a hung owner burns its deadline,
// not the client's patience.
func classify(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeClosed
	case errors.Is(err, ErrLoadShed):
		return CodeShed
	case errors.Is(err, ErrUnsupported):
		return CodeUnsupported
	case errors.Is(err, ownerengine.ErrVerificationFailed):
		return CodeVerificationFailed
	default:
		return CodeBackend
	}
}
