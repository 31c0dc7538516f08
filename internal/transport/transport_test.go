package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"prism/internal/protocol"
)

type echoHandler struct{}

func (echoHandler) Handle(_ context.Context, req any) (any, error) {
	if r, ok := req.(protocol.PSIRequest); ok && r.Table == "boom" {
		return nil, errors.New("synthetic failure")
	}
	return req, nil
}

func TestNetworkDispatch(t *testing.T) {
	n := NewNetwork()
	n.Register("server/0", echoHandler{})
	got, err := n.Call(context.Background(), "server/0", protocol.PSIRequest{Table: "t", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if got.(protocol.PSIRequest).Table != "t" {
		t.Fatalf("echo mismatch: %+v", got)
	}
}

func TestNetworkUnknownAddress(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Call(context.Background(), "nowhere", 1); err == nil {
		t.Fatal("expected error for unknown address")
	}
}

func TestNetworkErrorPropagation(t *testing.T) {
	n := NewNetwork()
	n.Register("server/0", echoHandler{})
	if _, err := n.Call(context.Background(), "server/0", protocol.PSIRequest{Table: "boom"}); err == nil {
		t.Fatal("expected handler error")
	}
}

func TestNetworkEncodeWire(t *testing.T) {
	// Every protocol message must survive the gob round trip.
	n := NewNetwork()
	n.EncodeWire = true
	n.Register("s", echoHandler{})
	msgs := []any{
		protocol.PSIRequest{Table: "t", QueryID: "q", Cells: []uint32{1, 2}},
		protocol.PSIReply{Out: []uint32{3, 4}, Stats: protocol.Stats{Cells: 2}},
		protocol.PSUReply{Out: []uint16{1}},
		protocol.StoreRequest{Owner: 1, Spec: protocol.TableSpec{Name: "x", B: 4},
			ChiAdd: []uint16{1, 2, 3, 4}, SumCols: map[string][]uint64{"pk": {9}}},
		protocol.AggRequest{Table: "t", Cols: []string{"a"}, Z: []uint64{5}},
		protocol.ExtremeSubmitRequest{QueryID: "q", Kind: protocol.KindMedian, VShares: [][]byte{{9, 8}, {7}}},
		protocol.ClaimFetchReply{Ready: true, Fpos: []uint16{0, 1}},
	}
	for _, m := range msgs {
		got, err := n.Call(context.Background(), "s", m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", m) {
			t.Fatalf("%T: round trip changed value:\n  in  %+v\n  out %+v", m, m, got)
		}
	}
}

func TestNetworkDeregister(t *testing.T) {
	n := NewNetwork()
	n.Register("a", echoHandler{})
	n.Deregister("a")
	if _, err := n.Call(context.Background(), "a", 1); err == nil {
		t.Fatal("deregistered address still reachable")
	}
}

func TestNetworkContextCancelled(t *testing.T) {
	n := NewNetwork()
	n.Register("a", echoHandler{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Call(ctx, "a", protocol.PSIRequest{}); err == nil {
		t.Fatal("cancelled context not honoured")
	}
}

func startTCP(t *testing.T, h Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go Serve(ctx, ln, h)
	return ln.Addr().String()
}

func TestTCPRoundTrip(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"server/0": addr})
	defer c.Close()
	req := protocol.PSIRequest{Table: "lineitem", QueryID: "q1", Cells: []uint32{7}}
	got, err := c.Call(context.Background(), "server/0", req)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got.(protocol.PSIRequest)
	if !ok || r.Table != "lineitem" || len(r.Cells) != 1 || r.Cells[0] != 7 {
		t.Fatalf("bad echo: %#v", got)
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	_, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "boom"})
	if err == nil || err.Error() != "synthetic failure" {
		t.Fatalf("err = %v, want synthetic failure", err)
	}
	// Connection must remain usable after a handler error.
	if _, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "ok"}); err != nil {
		t.Fatalf("connection dead after handler error: %v", err)
	}
}

func TestTCPUnknownAddress(t *testing.T) {
	c := NewTCPClient(nil)
	if _, err := c.Call(context.Background(), "ghost", 1); err == nil {
		t.Fatal("expected unknown-address error")
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := protocol.PSIRequest{QueryID: fmt.Sprint(i)}
			got, err := c.Call(context.Background(), "s", req)
			if err != nil {
				errs <- err
				return
			}
			if got.(protocol.PSIRequest).QueryID != fmt.Sprint(i) {
				errs <- fmt.Errorf("reply mismatch for %d", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPServerShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, echoHandler{}) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on cancel", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not stop after context cancel")
	}
}

func TestTCPLargePayload(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	big := make([]uint32, 1<<18) // 1 MiB payload
	for i := range big {
		big[i] = uint32(i)
	}
	got, err := c.Call(context.Background(), "s", protocol.PSIReply{Out: big})
	if err != nil {
		t.Fatal(err)
	}
	out := got.(protocol.PSIReply).Out
	if len(out) != len(big) || out[12345] != 12345 {
		t.Fatal("large payload corrupted")
	}
}
