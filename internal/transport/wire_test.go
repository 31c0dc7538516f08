package transport

import (
	"context"
	"strings"
	"testing"

	"prism/internal/protocol"
)

// unencodable cannot cross the wire: it is not in protocol.Messages(),
// and the codec has no encoding for a channel.
type unencodable struct{ C chan int }

// replyUnencodable answers any request with an unencodable value.
type replyUnencodable struct{}

func (replyUnencodable) Handle(_ context.Context, _ any) (any, error) {
	return unencodable{C: make(chan int)}, nil
}

// TestEncodeWireFailures drives Network.EncodeWire through every encode
// failure mode: unencodable request, unencodable reply, and concrete
// types outside the type table — each must surface as a transport error naming the
// direction, never a panic or a silently-skipped round trip.
func TestEncodeWireFailures(t *testing.T) {
	cases := []struct {
		name    string
		handler Handler
		req     any
		wantOK  bool
		wantDir string // substring identifying the failing direction
	}{
		{
			name:    "unencodable request",
			handler: echoHandler{},
			req:     unencodable{C: make(chan int)},
			wantDir: "encoding request",
		},
		{
			name:    "unencodable reply",
			handler: replyUnencodable{},
			req:     protocol.PSIRequest{Table: "t"},
			wantDir: "encoding reply",
		},
		{
			name:    "unregistered request type",
			handler: echoHandler{},
			req:     struct{ Secret int }{42},
			wantDir: "encoding request",
		},
		{
			name:    "registered protocol message survives",
			handler: echoHandler{},
			req:     protocol.PSIReply{Out: []uint32{3}},
			wantOK:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork()
			n.EncodeWire = true
			n.Register("s", tc.handler)
			got, err := n.Call(context.Background(), "s", tc.req)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("round trip failed: %v", err)
				}
				if r, ok := got.(protocol.PSIReply); !ok || len(r.Out) != 1 || r.Out[0] != 3 {
					t.Fatalf("bad echo: %#v", got)
				}
				return
			}
			if err == nil {
				t.Fatalf("encode failure not surfaced, got %#v", got)
			}
			if !strings.Contains(err.Error(), tc.wantDir) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.wantDir)
			}
		})
	}
}
