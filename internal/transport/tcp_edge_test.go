package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
)

// blockingHandler parks until its context is cancelled.
type blockingHandler struct{ entered chan struct{} }

func (h blockingHandler) Handle(ctx context.Context, req any) (any, error) {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestTCPFrameEdgeCases drives the server's frame reader with raw crafted
// byte streams: a well-formed call, an oversized length announcement, a
// frame of another wire version, and truncated or garbage frames.
func TestTCPFrameEdgeCases(t *testing.T) {
	addr := startTCP(t, echoHandler{})

	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	cases := []struct {
		name  string
		write func(t *testing.T, conn net.Conn)
		// wantReply: a full reply frame must come back. Otherwise the
		// server must drop the connection (EOF / reset), optionally after
		// an error frame naming the cause.
		wantReply   bool
		wantErrFrag string
	}{
		{
			name: "well-formed frame echoes",
			write: func(t *testing.T, conn net.Conn) {
				if err := writeFrame(conn, &envelope{Payload: protocol.PSIRequest{Table: "ok"}}); err != nil {
					t.Fatal(err)
				}
			},
			wantReply: true,
		},
		{
			name: "oversized frame announcement is rejected",
			write: func(t *testing.T, conn net.Conn) {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameBytes+1))
				if _, err := conn.Write(hdr[:]); err != nil {
					t.Fatal(err)
				}
			},
			wantErrFrag: "size limit",
		},
		{
			name: "truncated frame drops the connection",
			write: func(t *testing.T, conn net.Conn) {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 1024) // announce 1 KiB…
				conn.Write(hdr[:])
				conn.Write([]byte{1, 2, 3}) // …deliver 3 bytes
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			},
		},
		{
			name: "garbage payload of announced size drops the connection",
			write: func(t *testing.T, conn net.Conn) {
				body := append([]byte{frameVersion}, "this is not a frame body"...)
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
				conn.Write(hdr[:])
				conn.Write(body)
			},
		},
		{
			name: "frame of another wire version is refused",
			write: func(t *testing.T, conn net.Conn) {
				body := []byte("\x2c\xff\x81\x03\x01\x01\x08envelope") // a pre-slab peer: bare gob
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
				conn.Write(hdr[:])
				conn.Write(body)
			},
			wantErrFrag: "frame version",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := dial(t)
			tc.write(t, conn)
			env, err := readFrame(conn)
			switch {
			case tc.wantReply:
				if err != nil {
					t.Fatalf("expected echo reply, got %v", err)
				}
				if r, ok := env.Payload.(protocol.PSIRequest); !ok || r.Table != "ok" {
					t.Fatalf("bad echo: %#v", env.Payload)
				}
			case tc.wantErrFrag != "":
				if err != nil {
					t.Fatalf("expected an error frame before close, got %v", err)
				}
				if !strings.Contains(env.Err, tc.wantErrFrag) {
					t.Fatalf("error frame %q does not mention %q", env.Err, tc.wantErrFrag)
				}
				// After the error frame the connection must be closed.
				if _, err := readFrame(conn); err == nil {
					t.Fatal("connection still alive after protocol violation")
				}
			default:
				if err == nil {
					t.Fatalf("expected dropped connection, got frame %#v", env)
				}
			}
		})
	}
}

// TestTCPClientOversizedRequest asserts the client refuses to send a
// frame above the limit locally, without touching the wire.
func TestTCPClientOversizedRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >256MiB payload")
	}
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	// Vectors are width-packed, so force the full 8 wire bytes per element.
	out := make([]uint64, MaxFrameBytes/8+1)
	for i := range out {
		out[i] = ^uint64(0)
	}
	huge := protocol.AggReply{Counts: out}
	_, err := c.Call(context.Background(), "s", huge)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// The connection must still work for sane requests.
	if _, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "ok"}); err != nil {
		t.Fatalf("connection unusable after local reject: %v", err)
	}
}

// TestTCPClientTruncatedReply asserts a server that dies mid-reply
// surfaces a transport error, not a hang or a garbage value.
func TestTCPClientTruncatedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 4096) // promise 4 KiB
		conn.Write(hdr[:])
		conn.Write([]byte{0xde, 0xad}) // deliver 2 bytes, then close
	}()
	c := NewTCPClient(map[string]string{"s": ln.Addr().String()})
	defer c.Close()
	_, err = c.Call(context.Background(), "s", protocol.PSIRequest{Table: "t"})
	if err == nil {
		t.Fatal("truncated reply accepted")
	}
	if !strings.Contains(err.Error(), "truncated") && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want truncation", err)
	}
}

// TestTCPCallCancellationMidCall asserts a Call blocked on a slow server
// returns promptly with the context error when cancelled.
func TestTCPCallCancellationMidCall(t *testing.T) {
	h := blockingHandler{entered: make(chan struct{}, 1)}
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "s", protocol.PSIRequest{Table: "slow"})
		done <- err
	}()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the call")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after cancellation")
	}
	// The connection survives a wait-side cancellation; a fresh call
	// reuses it (and times out on the still-blocking handler with its
	// own deadline, not the stale cancellation).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	if _, err := c.Call(ctx2, "s", protocol.PSIRequest{Table: "again"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded from the fresh call's own deadline", err)
	}
}

// TestTCPCallPreCancelled asserts an already-cancelled context never
// touches the wire.
func TestTCPCallPreCancelled(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, "s", protocol.PSIRequest{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
