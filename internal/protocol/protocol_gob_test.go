package protocol_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// wireRoundTrip sends msg out and back through the real frame codec: an
// EncodeWire network encodes and decodes the request on the way to an
// echo handler and the reply on the way back. Every message crosses as
// the `any` payload of the frame's gob envelope, which is exactly the
// shape that requires gob registration of the concrete type.
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

// bulkTypes are the vector types that must travel as slabs, never
// through gob.
var bulkTypes = map[reflect.Type]bool{
	reflect.TypeOf([]uint16(nil)):            true,
	reflect.TypeOf([]uint32(nil)):            true,
	reflect.TypeOf([]uint64(nil)):            true,
	reflect.TypeOf(map[string][]uint64(nil)): true,
}

// bulkLeft reports the path of the first non-empty bulk vector still
// reachable in v — what gob would have to encode element by element.
func bulkLeft(v reflect.Value, path string) string {
	if bulkTypes[v.Type()] {
		if v.Len() > 0 {
			return path
		}
		return ""
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := bulkLeft(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := bulkLeft(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := bulkLeft(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key())); p != "" {
				return p
			}
		}
	case reflect.Ptr, reflect.Interface:
		if !v.IsNil() {
			return bulkLeft(v.Elem(), path)
		}
	}
	return ""
}

// fill returns a value of type t with every reachable exported field
// populated to something non-zero, so the round trip cannot pass by
// only ever encoding gob-omitted zero fields. seed keeps sibling
// fields distinct, catching any cross-field swap.
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
				continue // gob skips unexported fields
			}
			v.Field(i).Set(fill(f.Type, seed+i+1))
		}
	}
	return v
}

// TestGobRoundTripAllMessages sends one fully populated instance of
// every wire message through the real frame codec and requires the
// decoded value to be identical. This is the dynamic half of the
// gobregistry invariant: the static analyzer proves every message is in
// the registration list, and this test proves the registered set
// actually survives the wire — including nested types, maps and anything
// gob itself would reject at runtime. It also proves the other half of
// the wire format: once the codec has detached a message's slabs, no
// bulk vector is left anywhere in what gob gets to see.
func TestGobRoundTripAllMessages(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	for _, msg := range protocol.Messages() {
		typ := reflect.TypeOf(msg)
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
			header, slabs := protocol.Detach(in)
			if p := bulkLeft(reflect.ValueOf(header), typ.Name()); p != "" {
				t.Errorf("%s still reaches gob after Detach", p)
			}
			if bulkLeft(reflect.ValueOf(in), "") != "" && slabs.Size() == 0 {
				t.Errorf("%s carries bulk vectors but detached no slab", typ)
			}
		})
	}
}

// TestRegisterMatchesMessages pins Register to the Messages list so the
// two cannot drift: registering must not panic (duplicate names would)
// and must cover every listed type.
func TestRegisterMatchesMessages(t *testing.T) {
	// Register ran in init; a second run must be a no-op, not a panic
	// (gob panics on conflicting re-registration).
	protocol.Register()
	if n := len(protocol.Messages()); n < 30 {
		t.Fatalf("Messages lists only %d types; the wire protocol has more — did the list get truncated?", n)
	}
}
