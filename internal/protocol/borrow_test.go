package protocol_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"prism/internal/protocol"
)

// allocated is the heap bytes f allocates: the least of several
// readings, since TotalAlloc is process-wide and an allocation anything
// else in the process makes meanwhile can only add to a reading.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// within reports whether v's cells lie inside b.
func within[T any](v []T, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(v))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(len(v))*unsafe.Sizeof(v[0]) <= lo+uintptr(len(b))
}

// TestBorrowingDecodeAllocates: where vectors may alias their input, a
// borrowing decode of a full-width verified average's aggregation reply
// (4 vectors of 2^16 field elements) and of an aggregation request
// allocates no vector, its vectors pointing into the input: what is left
// is the message's fixed cost, under 2 KiB against 512 KiB per vector
// copied (the reply's is 1,120 bytes on amd64: the struct and its boxed
// copy, 128 bytes each, and two one-column maps of 400). A width-2 PSI
// reply still decodes into a fresh vector. Either way the values are
// DecodeMessage's.
func TestBorrowingDecodeAllocates(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skipf("%s decodes every vector by copy", runtime.GOARCH)
	}
	const n = 1 << 16
	full := func(seed uint64) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = (seed+uint64(i))*0x9E3779B97F4A7C15 | 1<<63
		}
		return v
	}
	cells := make([]uint32, n)
	for i := range cells {
		cells[i] = uint32(i)
	}
	for _, tc := range []struct {
		name    string
		msg     any
		aliased bool
		vec     func(any) []uint32 // PSIReply.Out, for the copy check
	}{
		{"AggReply", protocol.AggReply{Sums: map[string][]uint64{"DT": full(1)}, VSums: map[string][]uint64{"DT": full(2)},
			Counts: full(3), VCounts: full(4)}, true, nil},
		{"AggRequest", protocol.AggRequest{Table: "t", QueryID: "q", Cols: []string{"DT"}, WithCount: true,
			Shard: protocol.Range{Count: n}, Z: full(5), VZ: full(6)}, true, nil},
		{"PSIReply", protocol.PSIReply{Out: cells}, false, func(m any) []uint32 { return m.(protocol.PSIReply).Out }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := encode(t, tc.msg)
			var got any
			var aliased bool
			var err error
			bytes := allocated(func() { got, aliased, err = protocol.DecodeBorrowing(b) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatal("the borrowing decode changed the message")
			}
			if aliased != tc.aliased {
				t.Fatalf("aliased = %v, want %v", aliased, tc.aliased)
			}
			switch {
			case tc.aliased && bytes >= 2<<10:
				t.Errorf("allocated %d bytes, want under 2 KiB", bytes)
			case tc.vec != nil && (within(tc.vec(got), b) || bytes < 4*n):
				t.Errorf("a width-2 vector was not copied (allocated %d bytes)", bytes)
			}
			if tc.aliased {
				var v []uint64
				if r, ok := got.(protocol.AggReply); ok {
					v = r.Sums["DT"]
				} else {
					v = got.(protocol.AggRequest).VZ
				}
				if !within(v, b) {
					t.Error("a full-width vector does not alias the input")
				}
			}
			copied, err := protocol.DecodeMessage(b)
			if err != nil || !reflect.DeepEqual(copied, got) {
				t.Fatalf("DecodeMessage = %v, %v: differs from the borrowing decode", reflect.TypeOf(copied), err)
			}
		})
	}
}
