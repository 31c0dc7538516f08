package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/ownerengine"
)

// stub is a scriptable pool member for fault injection. The scripts
// are mutex-guarded so tests can heal a member while the background
// prober races them.
type stub struct {
	mu    sync.Mutex
	exec  func(ctx context.Context, q Query) (*Result, error)
	ping  func(ctx context.Context) error
	execs atomic.Int64
}

func (s *stub) set(exec func(ctx context.Context, q Query) (*Result, error), ping func(ctx context.Context) error) {
	s.mu.Lock()
	s.exec, s.ping = exec, ping
	s.mu.Unlock()
}

func (s *stub) Exec(ctx context.Context, q Query) (*Result, error) {
	s.execs.Add(1)
	s.mu.Lock()
	fn := s.exec
	s.mu.Unlock()
	if fn != nil {
		return fn(ctx, q)
	}
	return &Result{Count: 7}, nil
}

func (s *stub) Ping(ctx context.Context) error {
	s.mu.Lock()
	fn := s.ping
	s.mu.Unlock()
	if fn != nil {
		return fn(ctx)
	}
	return nil
}

// deadStub fails queries and probes alike: a crashed owner.
func deadStub() *stub {
	down := errors.New("stub: connection refused")
	return &stub{
		exec: func(context.Context, Query) (*Result, error) { return nil, down },
		ping: func(context.Context) error { return down },
	}
}

// startGateway serves cfg on a loopback listener and tears everything
// down (checking Serve's error) when the test ends.
func startGateway(t *testing.T, cfg Config) (string, *Gateway) {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), gw
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestGatewaySubmitPollPing(t *testing.T) {
	addr, _ := startGateway(t, Config{Backends: []Backend{&stub{}}})
	cl := dialT(t, addr)
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	resp, err := cl.Query("count", nil, "t0", 5*time.Second)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !resp.OK || resp.Count != 7 {
		t.Fatalf("response = %+v, want OK count 7", resp)
	}

	// Tickets are one-shot: the delivered ticket is retired.
	ticket, err := cl.Submit("count", nil, "t0", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for {
		resp, err = cl.Poll(ticket, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Done {
			break
		}
	}
	resp, err = cl.Poll(ticket, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeUnknownTicket {
		t.Fatalf("re-poll of a delivered ticket: code %q, want %q", resp.Code, CodeUnknownTicket)
	}

	// Unknown tickets are a typed refusal, not a hang.
	resp, err = cl.Poll("q999", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeUnknownTicket {
		t.Fatalf("unknown ticket: code %q, want %q", resp.Code, CodeUnknownTicket)
	}
}

// TestGatewayQueryZeroTimeout: Query with timeout 0 runs under the
// gateway's DefaultTimeout, so the client must keep polling past its
// own 2 s grace until the gateway answers.
func TestGatewayQueryZeroTimeout(t *testing.T) {
	slow := &stub{exec: func(ctx context.Context, q Query) (*Result, error) {
		select {
		case <-time.After(2500 * time.Millisecond):
			return &Result{Count: 7}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	addr, _ := startGateway(t, Config{Backends: []Backend{slow}, DefaultTimeout: 10 * time.Second})
	resp, err := dialT(t, addr).Query("count", nil, "t0", 0)
	if err != nil {
		t.Fatalf("Query with timeout 0: %v", err)
	}
	if !resp.OK || resp.Count != 7 {
		t.Fatalf("response = %+v, want OK count 7", resp)
	}
}

// TestGatewayExecMSStopsAtCompletion: exec_ms is the time a query took,
// not the time until its poll. An instant backend polled 300 ms after
// the submit must report well under that.
func TestGatewayExecMSStopsAtCompletion(t *testing.T) {
	addr, _ := startGateway(t, Config{Backends: []Backend{&stub{}}})
	cl := dialT(t, addr)
	ticket, err := cl.Submit("count", nil, "t0", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	resp, err := cl.Poll(ticket, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Done || !resp.OK {
		t.Fatalf("response = %+v, want a finished OK result", resp)
	}
	if resp.ExecMS >= 150 {
		t.Fatalf("exec_ms = %d for an instant query polled after 300 ms, want < 150", resp.ExecMS)
	}
}

// TestGatewayBadQueryRejected: an unknown kind, and every kind of the
// kind table with the wrong number of columns, bounces with the very
// error ownerengine.CheckCols gives the library and the CLI — before a
// backend sees it and before it costs the tenant's one admission token.
func TestGatewayBadQueryRejected(t *testing.T) {
	s := &stub{}
	addr, _ := startGateway(t, Config{Backends: []Backend{s}, Rate: 0.001, Burst: 1})
	cl := dialT(t, addr)
	if _, err := cl.Submit("explode", nil, "t0", time.Second); err == nil {
		t.Error(`Submit("explode") accepted`)
	}
	for _, name := range ownerengine.KindNames() {
		kind, _ := ownerengine.KindByName(name)
		for _, cols := range [][]string{nil, {"a"}, {"a", "b"}} {
			want := ownerengine.CheckCols(kind, cols)
			if want == nil {
				continue
			}
			if _, err := cl.Submit(name, cols, "t0", time.Second); err == nil || err.Error() != want.Error() {
				t.Errorf("Submit(%q, %v) = %v, want %v", name, cols, err, want)
			}
		}
	}
	if n := s.execs.Load(); n != 0 {
		t.Errorf("%d rejected submits reached a backend", n)
	}
	// The connection survives rejected submits, and the token is still there.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after rejects: %v", err)
	}
	if _, err := cl.Query("psuavg", []string{"a"}, "t0", 5*time.Second); err != nil {
		t.Fatalf("well-formed query after the rejects: %v", err)
	}
}

// TestGatewayDeadOwnerRerouted injects a dead pool member: queries that
// lease it must be re-routed to a live member (error-free from the
// client's view), the member marked down, and the failure visible in
// Pool().Healthy().
func TestGatewayDeadOwnerRerouted(t *testing.T) {
	dead := deadStub()
	live := &stub{}
	addr, gw := startGateway(t, Config{Backends: []Backend{dead, live}})
	cl := dialT(t, addr)
	// Round-robin guarantees the dead member is leased within two
	// queries; both must still answer from the live one.
	for i := 0; i < 2; i++ {
		resp, err := cl.Query("count", nil, "t0", 5*time.Second)
		if err != nil {
			t.Fatalf("query %d across a half-dead pool: %v", i, err)
		}
		if resp.Count != 7 {
			t.Fatalf("query %d: count %d, want 7", i, resp.Count)
		}
	}
	if h := gw.Pool().Healthy(); h != 1 {
		t.Errorf("Healthy() = %d after re-route, want 1", h)
	}
	if dead.execs.Load() == 0 {
		t.Error("dead member was never leased — the test exercised nothing")
	}

	// Recovery: the member answers probes again → the sweep revives it.
	dead.set(nil, nil)
	gw.Pool().Probe(context.Background())
	if h := gw.Pool().Healthy(); h != 2 {
		t.Errorf("Healthy() = %d after recovery probe, want 2", h)
	}
}

// TestGatewayAllOwnersDead: with every member down the query fails with
// a tagged, typed error — and names the members it tried.
func TestGatewayAllOwnersDead(t *testing.T) {
	addr, _ := startGateway(t, Config{Backends: []Backend{deadStub(), deadStub()}})
	cl := dialT(t, addr)
	_, err := cl.Query("count", nil, "t0", 5*time.Second)
	if err == nil {
		t.Fatal("query across a fully dead pool succeeded")
	}
	if !strings.Contains(err.Error(), CodeBackend) {
		t.Errorf("error %q does not carry the backend code", err)
	}
	if !strings.Contains(err.Error(), "all 2 pool members failed") {
		t.Errorf("error %q does not report the pool sweep", err)
	}
	if !strings.Contains(err.Error(), "owner ") {
		t.Errorf("error %q does not name an owner index", err)
	}
}

// TestGatewayVerificationFailedCode: a query whose result failed the
// owner's verification reaches the front door as "verification-failed",
// not as an outage ("backend").
func TestGatewayVerificationFailedCode(t *testing.T) {
	liar := &stub{exec: func(context.Context, Query) (*Result, error) {
		return nil, fmt.Errorf("group 0: %w: count position 3 fails r1·r2 ≡ 1", ownerengine.ErrVerificationFailed)
	}}
	addr, _ := startGateway(t, Config{Backends: []Backend{liar}})
	resp, err := dialT(t, addr).Query("count", nil, "t0", 5*time.Second)
	if err == nil {
		t.Fatal("a query that failed verification succeeded")
	}
	if resp.Code != CodeVerificationFailed {
		t.Errorf("code = %q, want %q (%v)", resp.Code, CodeVerificationFailed, err)
	}
}

// TestGatewayQueryErrorNotRerouted: a member that fails the query but
// answers its probe keeps the failure — re-routing a sick query to m
// members would fail m times and mask the real error.
func TestGatewayQueryErrorNotRerouted(t *testing.T) {
	sick := &stub{exec: func(context.Context, Query) (*Result, error) {
		return nil, errors.New("stub: unknown table \"nope\"")
	}}
	other := &stub{}
	addr, gw := startGateway(t, Config{Backends: []Backend{sick, other}})
	cl := dialT(t, addr)
	var failures int
	for i := 0; i < 2; i++ {
		if _, err := cl.Query("count", nil, "t0", 5*time.Second); err != nil {
			failures++
			if !strings.Contains(err.Error(), "unknown table") {
				t.Errorf("query error %q lost the backend cause", err)
			}
		}
	}
	if failures != 1 {
		t.Errorf("failures = %d over one sick + one live member, want exactly 1", failures)
	}
	if h := gw.Pool().Healthy(); h != 2 {
		t.Errorf("Healthy() = %d, want 2 — a query-level error must not mark the member down", h)
	}
}

// TestGatewayHangTimesOut injects an owner that never answers: the
// query must come back as a typed timeout when its deadline passes —
// not stall the client, not stall the connection.
func TestGatewayHangTimesOut(t *testing.T) {
	hung := &stub{exec: func(ctx context.Context, q Query) (*Result, error) {
		<-ctx.Done() // hang until the deadline reels the query in
		return nil, ctx.Err()
	}}
	addr, _ := startGateway(t, Config{Backends: []Backend{hung}})
	cl := dialT(t, addr)
	start := time.Now()
	_, err := cl.Query("count", nil, "t0", 300*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a hung owner succeeded")
	}
	if !strings.Contains(err.Error(), CodeTimeout) {
		t.Errorf("error %q does not carry the timeout code", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout took %v — the deadline did not bound the hang", elapsed)
	}
	// The connection (and gateway) stay serviceable afterwards.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after a timed-out query: %v", err)
	}
}

// TestGatewayDisconnectCancelsQueries: tickets are connection-scoped —
// when the submitting client vanishes mid-query, the gateway cancels
// the in-flight work instead of running it for nobody.
func TestGatewayDisconnectCancelsQueries(t *testing.T) {
	cancelled := make(chan struct{})
	hung := &stub{exec: func(ctx context.Context, q Query) (*Result, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}}
	addr, _ := startGateway(t, Config{Backends: []Backend{hung}})
	cl := dialT(t, addr)
	if _, err := cl.Submit("count", nil, "t0", time.Minute); err != nil {
		t.Fatal(err)
	}
	// Give the query a moment to reach the backend, then vanish.
	for i := 0; hung.execs.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query not cancelled within 5s of its client disconnecting")
	}
}

// TestGatewayShedEndToEnd: an admission rejection travels the wire as
// code "shed" and surfaces client-side as a typed ErrLoadShed.
func TestGatewayShedEndToEnd(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := &stub{exec: func(ctx context.Context, q Query) (*Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &Result{Count: 7}, nil
	}}
	addr, _ := startGateway(t, Config{Backends: []Backend{slow}, Rate: 1, Burst: 1, Queue: 0})
	cl := dialT(t, addr)
	if _, err := cl.Submit("count", nil, "t0", 30*time.Second); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := cl.Submit("count", nil, "t0", 30*time.Second)
	if !errors.Is(err, ErrLoadShed) {
		t.Fatalf("second submit: %v, want a typed ErrLoadShed", err)
	}
}

// TestGatewayHostileFrames drives raw hostile bytes at a live gateway:
// an oversized length prefix gets a typed refusal and the connection
// dropped; junk JSON inside a well-formed frame gets a typed refusal
// with the connection surviving.
func TestGatewayHostileFrames(t *testing.T) {
	addr, _ := startGateway(t, Config{Backends: []Backend{&stub{}}})

	t.Run("oversized length prefix", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrontFrame+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		frame, err := ReadFrame(conn, MaxReplyFrame)
		if err != nil {
			t.Fatalf("reading the refusal: %v", err)
		}
		if !bytes.Contains(frame, []byte(CodeBadRequest)) {
			t.Errorf("refusal %s does not carry code %q", frame, CodeBadRequest)
		}
		// The gateway cannot resync a broken framing stream: EOF next.
		if _, err := ReadFrame(conn, MaxReplyFrame); err == nil {
			t.Error("connection survived a hostile length prefix")
		}
	})

	t.Run("junk JSON keeps the connection", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteFrame(conn, []byte("not json"), MaxFrontFrame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		frame, err := ReadFrame(conn, MaxReplyFrame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(frame, []byte(CodeBadRequest)) {
			t.Errorf("refusal %s does not carry code %q", frame, CodeBadRequest)
		}
		// Framing is intact, so a valid request must still work.
		if err := WriteFrame(conn, []byte(fmt.Sprintf(`{"op":%q,"id":"p1"}`, OpPing)), MaxFrontFrame); err != nil {
			t.Fatal(err)
		}
		frame, err = ReadFrame(conn, MaxReplyFrame)
		if err != nil {
			t.Fatalf("ping after junk frame: %v", err)
		}
		if !bytes.Contains(frame, []byte(`"ok":true`)) {
			t.Errorf("ping reply %s after junk frame, want ok", frame)
		}
	})
}

// TestGatewayUnsupportedKind: extremes through a pool that cannot
// coordinate them come back typed "unsupported", immediately.
func TestGatewayUnsupportedKind(t *testing.T) {
	s := &stub{exec: func(ctx context.Context, q Query) (*Result, error) {
		return nil, fmt.Errorf("%w: %s needs every owner", ErrUnsupported, q.Kind)
	}}
	addr, gw := startGateway(t, Config{Backends: []Backend{s}})
	cl := dialT(t, addr)
	_, err := cl.Query("max", []string{"DT"}, "t0", 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), CodeUnsupported) {
		t.Fatalf("max through a non-coordinating pool: %v, want code %q", err, CodeUnsupported)
	}
	if h := gw.Pool().Healthy(); h != 1 {
		t.Errorf("Healthy() = %d — ErrUnsupported must not down a member", h)
	}
}

// TestGatewayReplyTooLarge: a result whose reply would pass
// MaxReplyFrame comes back as a typed too-large error within the query's
// timeout, for the same request — not as silence that leaves the client
// blocked on a reply that never comes.
func TestGatewayReplyTooLarge(t *testing.T) {
	huge := make([]uint64, MaxReplyFrame/len("18446744073709551615,")+1)
	for i := range huge {
		huge[i] = math.MaxUint64
	}
	addr, _ := startGateway(t, Config{Backends: []Backend{&stub{exec: func(context.Context, Query) (*Result, error) {
		return &Result{Cells: huge}, nil
	}}}})
	cl := dialT(t, addr)
	const timeout = 5 * time.Second
	type outcome struct {
		resp *Response
		err  error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		resp, err := cl.Query("psu", nil, "", timeout)
		done <- outcome{resp, err}
	}()
	select {
	case o := <-done:
		if o.resp == nil || o.resp.Code != CodeTooLarge || !strings.Contains(o.err.Error(), CodeTooLarge) {
			t.Fatalf("oversized reply: resp %+v, err %v; want code %q", o.resp, o.err, CodeTooLarge)
		}
		if took := time.Since(start); took > timeout {
			t.Fatalf("too-large answered after %v, past the %v query timeout", took, timeout)
		}
	case <-time.After(3 * timeout):
		t.Fatalf("Query still blocked %v after an oversized reply", 3*timeout)
	}
}

// TestClientReadDeadline: a gateway that accepts frames and never
// answers ends the client's query in a deadline error, not a hang.
func TestClientReadDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					if _, err := ReadFrame(conn, MaxFrontFrame); err != nil {
						return
					}
				}
			}()
		}
	}()
	cl := dialT(t, ln.Addr().String())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Query("psi", nil, "", 500*time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("silent gateway: err = %v, want a read deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Query still blocked after 10s against a gateway that never answers")
	}
}
