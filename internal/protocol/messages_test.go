package protocol_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// wireRoundTrip sends msg out and back through the real frame codec: an
// EncodeWire network encodes and decodes the request on the way to an
// echo handler and the reply on the way back. Every message crosses as
// the frame's `any` payload, named by its index in protocol.Messages().
func wireRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	n := transport.NewNetwork()
	n.EncodeWire = true
	n.Register("echo", transport.HandlerFunc(func(_ context.Context, req any) (any, error) { return req, nil }))
	out, err := n.Call(context.Background(), "echo", msg)
	if err != nil {
		t.Fatalf("%T through the frame codec: %v", msg, err)
	}
	return out
}

// fill returns a value of type t with every reachable exported field
// populated to something non-zero, so the round trip cannot pass by
// only ever encoding zero fields. seed keeps sibling fields distinct,
// catching any cross-field swap.
func fill(t reflect.Type, seed int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(seed))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 2, 2))
		for i := 0; i < 2; i++ {
			v.Index(i).Set(fill(t.Elem(), seed+i+1))
		}
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			v.Index(i).Set(fill(t.Elem(), seed+i+1))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		for i := 0; i < 2; i++ {
			v.SetMapIndex(fill(t.Key(), seed+i+1), fill(t.Elem(), seed+i+3))
		}
	case reflect.Ptr:
		v.Set(reflect.New(t.Elem()))
		v.Elem().Set(fill(t.Elem(), seed+1))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue // the codec skips unexported fields
			}
			v.Field(i).Set(fill(f.Type, seed+i+1))
		}
	}
	return v
}

// wireOrder is Messages() under frame version 4: a message travels as
// its position in the list.
const wireOrder = "TableSpec Stats Range Span StoreRequest StoreReply " +
	"StoreDeltaRequest StoreDeltaReply PSIRequest PSIReply CountRequest CountReply " +
	"PSURequest PSUReply AggRequest AggReply ExtremeSubmitRequest ExtremeSubmitReply " +
	"ExtremeFetchRequest ExtremeFetchReply AnnounceRequest AnnounceReply " +
	"AnnounceFetchRequest AnnounceFetchReply ClaimSubmitRequest ClaimSubmitReply " +
	"ClaimFetchRequest ClaimFetchReply ListTablesRequest ListTablesReply TableStatus " +
	"ExtremeReduceRequest ExtremeReduceReply " +
	"PingRequest PingReply QueryDoneRequest QueryDoneReply"

// TestGobRoundTripAllMessages sends one fully populated instance of
// every wire message through the real frame codec and requires the
// decoded value to be identical. This is the dynamic half of the
// wireregistry invariant: the static analyzer proves every message is
// in the type table, and this test proves each listed type survives the
// wire — its nested types, maps and vectors included. Messages() must
// list each type once, in the order above.
func TestGobRoundTripAllMessages(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	var names []string
	for _, msg := range protocol.Messages() {
		typ := reflect.TypeOf(msg)
		names = append(names, typ.Name())
		if seen[typ] {
			t.Errorf("Messages lists %s twice", typ)
			continue
		}
		seen[typ] = true
		t.Run(typ.Name(), func(t *testing.T) {
			in := fill(typ, 1).Interface()
			if out := wireRoundTrip(t, in); !reflect.DeepEqual(out, in) {
				t.Errorf("round trip changed %s:\n got %#v\nwant %#v", typ, out, in)
			}
		})
	}
	if got := strings.Join(names, " "); got != wireOrder {
		t.Errorf("Messages() changed the wire's type indexes:\n got %s\nwant %s", got, wireOrder)
	}
}
