package protocol_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"prism/internal/protocol"
)

// section returns msg's slab section alone.
func section(msg any) []byte {
	_, slabs := protocol.Detach(msg)
	return slabs.AppendTo(nil)
}

// TestSlabWidthBoundaries pins the width rule on both sides of every
// boundary: a vector's elements take the narrowest of 1/2/4/8 bytes
// that holds its largest one, and the value survives either way.
func TestSlabWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		max   uint64
		width int
	}{
		{0, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4},
		{math.MaxUint32, 4}, {math.MaxUint32 + 1, 8}, {math.MaxUint64, 8},
	} {
		in := protocol.AggReply{Counts: []uint64{1, tc.max, 0}}
		// field index, kind, width, count: four one-byte header fields.
		if got, want := len(section(in)), 4+3*tc.width; got != want {
			t.Errorf("max %d: slab section is %d bytes, want %d (width %d)", tc.max, got, want, tc.width)
		}
		if out := wireRoundTrip(t, in); !reflect.DeepEqual(out, in) {
			t.Errorf("max %d: got %v", tc.max, out)
		}
	}
	// Narrow element types stop at their own size.
	if got := len(section(protocol.PSUReply{Out: []uint16{7, 65535}})); got != 4+2*2 {
		t.Errorf("uint16 vector at its maximum: %d bytes", got)
	}
	if got := len(section(protocol.PSIRequest{Cells: []uint32{math.MaxUint32}})); got != 4+4 {
		t.Errorf("uint32 vector at its maximum: %d bytes", got)
	}
	for _, in := range []any{
		protocol.PSUReply{Out: []uint16{0, 255, 256, 65535}},
		protocol.PSIRequest{Table: "t", Cells: []uint32{0, 65535, 65536, math.MaxUint32}},
		protocol.PSIReply{Out: []uint32{42}}, // one cell
	} {
		if out := wireRoundTrip(t, in); !reflect.DeepEqual(out, in) {
			t.Errorf("got %v, want %v", out, in)
		}
	}
}

// TestSlabAllLengths walks every element type and wire width through
// vector lengths 1..40, so both the whole-word loop of the packer and
// its byte-wise tail, and the hand-over between them, carry real data.
func TestSlabAllLengths(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		for n := 1; n <= 40; n++ {
			u64 := make([]uint64, n)
			u32 := make([]uint32, n)
			u16 := make([]uint16, n)
			for i := range u64 {
				x := (uint64(n*41+i+1) * 0x9E3779B97F4A7C15) >> (64 - 8*width)
				u64[i], u32[i], u16[i] = x, uint32(x), uint16(x)
			}
			u64[0], u32[0], u16[0] = u64[0]|1<<(8*width-1), u32[0]|1<<(min(8*width, 32)-1), u16[0]|1<<(min(8*width, 16)-1)
			for _, in := range []any{
				protocol.AggReply{Counts: u64, Sums: map[string][]uint64{"c": u64}},
				protocol.PSIRequest{Cells: u32},
				protocol.PSUReply{Out: u16},
			} {
				if out := wireRoundTrip(t, in); !reflect.DeepEqual(out, in) {
					t.Fatalf("width %d, %d cells: got %v\nwant %v", width, n, out, in)
				}
			}
		}
	}
}

// TestSlabEmptyVectors pins what "empty" means on the wire, which is
// what gob alone has always delivered: an empty vector has no record and
// arrives nil, an empty map arrives empty, and an empty vector under a
// map key keeps its key.
func TestSlabEmptyVectors(t *testing.T) {
	in := protocol.CountReply{Out: []uint32{}, Vout: nil, Stats: protocol.Stats{Cells: 3}}
	if n := len(section(in)); n != 0 {
		t.Errorf("empty vectors produced %d slab bytes", n)
	}
	out := wireRoundTrip(t, in).(protocol.CountReply)
	if out.Out != nil || out.Vout != nil || out.Stats.Cells != 3 {
		t.Errorf("empty/nil vectors arrived as %#v", out)
	}

	agg := wireRoundTrip(t, protocol.AggReply{
		Sums:    map[string][]uint64{},
		VSums:   map[string][]uint64{"a": {}, "b": nil, "c": {5}},
		VCounts: []uint64{0}, // one zero cell is not empty
	}).(protocol.AggReply)
	want := protocol.AggReply{
		Sums:    map[string][]uint64{},
		VSums:   map[string][]uint64{"a": nil, "b": nil, "c": {5}},
		VCounts: []uint64{0},
	}
	if !reflect.DeepEqual(agg, want) {
		t.Errorf("got %#v\nwant %#v", agg, want)
	}
}

// TestSlabMapKeyOrder asserts map entries are written in key order
// whatever order the map was built in, so equal messages are equal
// bytes, and that several keys per map and several maps per message
// keep their vectors apart.
func TestSlabMapKeyOrder(t *testing.T) {
	fwd := map[string][]uint64{}
	rev := map[string][]uint64{}
	keys := []string{"DT", "LN", "PK", "SK", ""}
	for i, k := range keys {
		fwd[k] = []uint64{uint64(i), 1 << 40}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev[keys[i]] = []uint64{uint64(i), 1 << 40}
	}
	a := protocol.AggReply{Sums: fwd, VSums: map[string][]uint64{"PK": {9}, "DT": {8}}, Counts: []uint64{3}}
	b := protocol.AggReply{Sums: rev, VSums: map[string][]uint64{"DT": {8}, "PK": {9}}, Counts: []uint64{3}}
	if !bytes.Equal(section(a), section(b)) {
		t.Error("slab bytes depend on map insertion order")
	}
	if out := wireRoundTrip(t, a); !reflect.DeepEqual(out, b) {
		t.Errorf("got %#v\nwant %#v", out, b)
	}
}

// TestDetachLeavesMessageIntact asserts encoding never mutates the
// caller's message: the same request value is sent to several servers.
func TestDetachLeavesMessageIntact(t *testing.T) {
	in := protocol.AggRequest{Table: "t", Z: []uint64{1, 2}, VZ: []uint64{3}}
	header, _ := protocol.Detach(in)
	if in.Z == nil || in.VZ == nil {
		t.Fatal("Detach cleared the caller's vectors")
	}
	if h := header.(protocol.AggRequest); h.Z != nil || h.VZ != nil || h.Table != "t" {
		t.Fatalf("header = %#v", h)
	}
}

// TestAttachRejectsHostileSections feeds Attach every malformed slab
// section the format allows an attacker to write. Each must come back
// as ErrCorruptSlab — never a panic, never a count-driven allocation.
func TestAttachRejectsHostileSections(t *testing.T) {
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// AggReply fields: 0 Sums (map), 1 Counts, 2 VSums (map), 3 VCounts, 4 Stats.
	good := section(protocol.AggReply{Sums: map[string][]uint64{"a": {1}}, Counts: []uint64{2}})
	if _, err := protocol.Attach(protocol.AggReply{}, good); err != nil {
		t.Fatalf("well-formed section rejected: %v", err)
	}
	cases := []struct {
		name    string
		header  any
		section []byte
	}{
		{"message without vector fields", protocol.PingRequest{}, good},
		{"nil payload", nil, good},
		{"field index out of range", protocol.AggReply{}, cat(uv(99), []byte{0, 1, 1, 7})},
		{"field index overflows uvarint", protocol.AggReply{}, bytes.Repeat([]byte{0xff}, 11)},
		{"field is not a vector", protocol.AggReply{}, cat(uv(4), []byte{0, 1, 1, 7})},
		{"slice record for a map field", protocol.AggReply{}, cat(uv(0), []byte{0, 1, 1, 7})},
		{"map record for a slice field", protocol.AggReply{}, cat(uv(1), []byte{1, 1, 'k', 1, 1, 7})},
		{"unknown record kind", protocol.AggReply{}, cat(uv(1), []byte{2, 1, 1, 7})},
		{"width 3", protocol.AggReply{}, cat(uv(1), []byte{0, 3, 1, 7, 7, 7})},
		{"width 0", protocol.AggReply{}, cat(uv(1), []byte{0, 0, 1})},
		{"width 16", protocol.AggReply{}, cat(uv(1), []byte{0, 16, 0})},
		{"width wider than the element", protocol.PSUReply{}, cat(uv(0), []byte{0, 4, 1, 1, 2, 3, 4})},
		{"8-byte PSI cells", protocol.PSIReply{}, cat(uv(0), []byte{0, 8, 1}, make([]byte, 8))},
		{"8-byte count cells", protocol.CountReply{}, cat(uv(1), []byte{0, 8, 1}, make([]byte, 8))},
		{"count exceeds the bytes left", protocol.AggReply{}, cat(uv(1), []byte{0, 8}, uv(2), make([]byte, 15))},
		{"count × width overflows", protocol.AggReply{}, cat(uv(1), []byte{0, 8}, uv(math.MaxUint64/4), make([]byte, 64))},
		{"huge count, empty section", protocol.AggReply{}, cat(uv(1), []byte{0, 1}, uv(1<<40))},
		{"key length exceeds the bytes left", protocol.AggReply{}, cat(uv(0), []byte{1}, uv(1<<30), []byte("k"))},
		{"repeated slice field", protocol.AggReply{}, cat(uv(1), []byte{0, 1, 1, 7}, uv(1), []byte{0, 1, 1, 7})},
		{"repeated map key", protocol.AggReply{}, cat(uv(0), []byte{1, 1, 'k', 1, 1, 7}, uv(0), []byte{1, 1, 'k', 1, 1, 7})},
		{"fields out of order", protocol.AggReply{}, cat(uv(3), []byte{0, 1, 1, 7}, uv(1), []byte{0, 1, 1, 7})},
		{"trailing byte", protocol.AggReply{}, cat(good, []byte{1})},
		{"truncated after field index", protocol.AggReply{}, uv(1)},
		{"truncated after kind", protocol.AggReply{}, cat(uv(1), []byte{0})},
		{"truncated after width", protocol.AggReply{}, cat(uv(1), []byte{0, 1})},
		{"truncated data", protocol.AggReply{}, good[:len(good)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := protocol.Attach(tc.header, tc.section)
			if !errors.Is(err, protocol.ErrCorruptSlab) {
				t.Fatalf("Attach = %#v, %v; want ErrCorruptSlab", got, err)
			}
		})
	}
}
