package transport

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
)

// fullWidth is an n-cell vector of field-element-sized values, which a
// borrowing decode leaves in its frame.
func fullWidth(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i+1)*0x9E3779B97F4A7C15 | 1<<63
	}
	return v
}

// settled waits until every frame buffer the transport read, decoded or
// laid is back (HeldFrames is 0), failing t if that takes longer than 5 s:
// servers of earlier tests may still be finishing a request.
func settled(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for HeldFrames() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d frame buffers still held", HeldFrames())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNetworkBorrowedReplyLifetime: a borrowed reply holds its frame
// until released and reads poison after; Call's reply holds none and
// keeps its values; the request frame of a panicking handler goes back
// as the panic unwinds.
func TestNetworkBorrowedReplyLifetime(t *testing.T) {
	settled(t)
	defer PoisonReleasedFrames()()
	want := protocol.AggReply{Sums: map[string][]uint64{"DT": fullWidth(300)}, Counts: fullWidth(5)}
	n := NewNetwork()
	n.EncodeWire = true
	n.Register("s", HandlerFunc(func(_ context.Context, req any) (any, error) {
		if _, ok := req.(protocol.AggRequest); ok {
			panic("selector rejected")
		}
		return want, nil
	}))
	ctx := context.Background()

	rep, release, err := n.CallBorrowed(ctx, "s", protocol.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) || HeldFrames() != 1 {
		t.Fatalf("borrowed reply %v with %d frames held, want the echo and 1", reflect.TypeOf(rep), HeldFrames())
	}
	counts := rep.(protocol.AggReply).Counts
	release()
	release() // idempotent
	if HeldFrames() != 0 || counts[0] != ^uint64(0) {
		t.Fatalf("after release: %d frames held, cell 0 = %#x; want 0 and poison", HeldFrames(), counts[0])
	}

	rep, err = n.Call(ctx, "s", protocol.PingRequest{})
	if err != nil || HeldFrames() != 0 {
		t.Fatalf("Call: %v, %d frames held", err, HeldFrames())
	}
	if _, release, err = n.CallBorrowed(ctx, "s", protocol.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	release()
	if !reflect.DeepEqual(rep, want) {
		t.Fatal("Call's reply changed when a later frame was poisoned")
	}

	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("the handler's panic did not reach the caller")
			}
		}()
		n.Call(ctx, "s", protocol.AggRequest{Table: "t", Z: fullWidth(64)})
	}()
	if HeldFrames() != 0 {
		t.Fatalf("%d frames held after a handler panic, want the request's back", HeldFrames())
	}
}

// TestTCPBorrowedFramesReleased: over TCP, the request frame of a
// panicking handler goes back before its error reply is sent, and a
// borrowed reply that arrives for a cancelled call is released by the
// demux.
func TestTCPBorrowedFramesReleased(t *testing.T) {
	settled(t)
	defer PoisonReleasedFrames()()
	ctx := context.Background()

	t.Run("handler panic", func(t *testing.T) {
		addr := startTCP(t, HandlerFunc(func(context.Context, any) (any, error) { panic("selector rejected") }))
		c := NewTCPClient(map[string]string{"s": addr})
		defer c.Close()
		_, _, err := c.CallBorrowed(ctx, "s", protocol.AggRequest{Table: "t", Z: fullWidth(4096), VZ: fullWidth(4096)})
		if err == nil || !strings.Contains(err.Error(), "handler panic") {
			t.Fatalf("err = %v, want the handler panic", err)
		}
		if HeldFrames() != 0 {
			t.Fatalf("%d frames held after the panic's reply", HeldFrames())
		}
	})

	t.Run("cancelled call", func(t *testing.T) {
		// A raw server: it answers the first request only after the second
		// arrives, and before it, so the demux has handled the first reply
		// once the second call returns.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		reply := protocol.AggReply{Counts: fullWidth(4096)}
		first := make(chan struct{})
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var ids []uint64
			for range 2 {
				req, err := readFrame(conn)
				if err != nil {
					return
				}
				if ids = append(ids, req.ID); len(ids) == 1 {
					close(first)
				}
			}
			for _, id := range ids {
				if writeFrame(conn, &envelope{ID: id, Payload: reply}) != nil {
					return
				}
			}
		}()
		c := NewTCPClient(map[string]string{"s": ln.Addr().String()})
		defer c.Close()
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, _, err := c.CallBorrowed(cctx, "s", protocol.PingRequest{})
			done <- err
		}()
		<-first
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call: %v", err)
		}
		rep, release, err := c.CallBorrowed(ctx, "s", protocol.PingRequest{})
		if err != nil || !reflect.DeepEqual(rep, reply) {
			t.Fatalf("second call: %v, %v", reflect.TypeOf(rep), err)
		}
		if HeldFrames() != 1 {
			t.Fatalf("%d frames held, want only the second call's", HeldFrames())
		}
		release()
		if HeldFrames() != 0 {
			t.Fatalf("%d frames held after release", HeldFrames())
		}
	})
}

// laidRequest is a finished laid aggregation request of 512 selector
// shares.
func laidRequest(t *testing.T) *protocol.Laid {
	t.Helper()
	req := protocol.AggRequest{Table: "t", Z: protocol.Reserve[uint64]()}
	l, err := Lay(req, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	protocol.Cells[uint64](l, 0).Put(0, fullWidth(512))
	if err := l.Finish(req); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLaidRequestsReleased: a call takes a laid request over and gives
// its frame back on every path — sent and answered, or refused before it
// is framed (a cancelled context, an unknown address) — on a Network
// that frames every message, on one that does not, and over TCP; and a
// laid request's handler reads the cells that were put.
func TestLaidRequestsReleased(t *testing.T) {
	settled(t)
	defer PoisonReleasedFrames()()
	want := fullWidth(512)
	echo := HandlerFunc(func(_ context.Context, req any) (any, error) {
		if r, ok := req.(protocol.AggRequest); !ok || !reflect.DeepEqual(r.Z, want) {
			return nil, errors.New("the laid request arrived changed")
		}
		return protocol.PingReply{Site: "s"}, nil
	})
	framed, plain := NewNetwork(), NewNetwork()
	framed.EncodeWire = true
	framed.Register("s", echo)
	plain.Register("s", echo)
	tcp := NewTCPClient(map[string]string{"s": startTCP(t, echo)})
	defer tcp.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, c := range map[string]Caller{"framed": framed, "plain": plain, "tcp": tcp} {
		for _, call := range []struct {
			ctx  context.Context
			addr string
			ok   bool
		}{{context.Background(), "s", true}, {cancelled, "s", false}, {context.Background(), "nowhere", false}} {
			_, release, err := c.CallBorrowed(call.ctx, call.addr, laidRequest(t))
			if (err == nil) != call.ok {
				t.Fatalf("%s to %q: err = %v", name, call.addr, err)
			}
			release()
			settled(t)
		}
	}
}
