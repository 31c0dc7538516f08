package protocol_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"prism/internal/protocol"
)

// encode returns msg's wire encoding: type index and value.
func encode(t testing.TB, msg any) []byte {
	t.Helper()
	m, err := protocol.Measure(msg)
	if err != nil {
		t.Fatal(err)
	}
	b := m.AppendTo(nil)
	if len(b) != m.Size {
		t.Fatalf("%T: Measure said %d bytes, AppendTo wrote %d", msg, m.Size, len(b))
	}
	return b
}

// TestSlabWidthBoundaries pins the width rule of packed vectors on both
// sides of every boundary: a vector's elements take the narrowest of
// 1/2/4/8 bytes that holds its largest one, and the value survives
// either way.
func TestSlabWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		max   uint64
		width int
	}{
		{0, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4},
		{math.MaxUint32, 4}, {math.MaxUint32 + 1, 8}, {math.MaxUint64, 8},
	} {
		in := protocol.AggReply{Counts: []uint64{1, tc.max, 0}}
		// Width byte and count stay one byte each: only the elements grow.
		if got, want := len(encode(t, in))-len(encode(t, protocol.AggReply{})), 3*tc.width; got != want {
			t.Errorf("max %d: three cells took %d bytes, want %d (width %d)", tc.max, got, want, tc.width)
		}
		if out := wireRoundTrip(t, in); !reflect.DeepEqual(out, in) {
			t.Errorf("max %d: got %v", tc.max, out)
		}
	}
	// Narrow element types stop at their own size.
	if got := len(encode(t, protocol.PSUReply{Out: []uint16{7, 65535}})) - len(encode(t, protocol.PSUReply{})); got != 2*2 {
		t.Errorf("uint16 vector at its maximum: %d bytes", got)
	}
	if got := len(encode(t, protocol.PSIReply{Out: []uint32{math.MaxUint32}})) - len(encode(t, protocol.PSIReply{})); got != 4 {
		t.Errorf("uint32 vector at its maximum: %d bytes", got)
	}
	for _, in := range []any{
		protocol.PSUReply{Out: []uint16{0, 255, 256, 65535}},
		protocol.PSIReply{Out: []uint32{0, 65535, 65536, math.MaxUint32}},
		protocol.PSIReply{Out: []uint32{42}}, // one cell
	} {
		if out := wireRoundTrip(t, in); !reflect.DeepEqual(out, in) {
			t.Errorf("got %v, want %v", out, in)
		}
	}
}

// TestSlabAllLengths walks every element type and wire width through
// vector lengths 1..40 and on both sides of one and four of the width
// scan's 256-element blocks, so the whole-word loops of the packer and
// its byte-wise tail, the hand-over between them, and the scan's exit
// after a block carry real data. Each length runs twice: once with
// every element random at the full width, so each byte of every word
// slot carries data, and once with every element but one fitting in
// half the width (in one byte at width 1). The widest element sits
// first or last, so a scan that stops before the final block misses
// the latter.
func TestSlabAllLengths(t *testing.T) {
	var lengths []int
	for n := 1; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257, 1023, 1024, 1025)
	for _, width := range []int{1, 2, 4, 8} {
		for _, n := range lengths {
			// Full-width random elements, then narrow ones.
			for _, shift := range []int{64 - 8*width, 64 - 4*max(width, 2)} {
				for _, widest := range []int{0, n - 1} {
					u64 := make([]uint64, n)
					u32 := make([]uint32, n)
					u16 := make([]uint16, n)
					for i := range u64 {
						x := (uint64(n*41+i+1) * 0x9E3779B97F4A7C15) >> shift
						u64[i], u32[i], u16[i] = x, uint32(x), uint16(x)
					}
					u64[widest] |= 1 << (8*width - 1)
					u32[widest] |= 1 << (min(8*width, 32) - 1)
					u16[widest] |= 1 << (min(8*width, 16) - 1)
					for _, c := range []struct {
						in, empty   any
						vecs, width int
					}{
						{protocol.AggReply{Counts: u64, Sums: map[string][]uint64{"c": u64}}, protocol.AggReply{Sums: map[string][]uint64{"c": nil}}, 2, width},
						{protocol.PSIReply{Out: u32}, protocol.PSIReply{}, 1, min(width, 4)},
						{protocol.PSUReply{Out: u16}, protocol.PSUReply{}, 1, min(width, 2)},
					} {
						if out := wireRoundTrip(t, c.in); !reflect.DeepEqual(out, c.in) {
							t.Fatalf("width %d, %d cells >> %d, widest at %d: got %v\nwant %v", width, n, shift, widest, out, c.in)
						}
						// Only the widest element sets the width: each vector
						// grows by n·width bytes and a longer count.
						got := len(encode(t, c.in)) - len(encode(t, c.empty))
						if want := c.vecs * (n*c.width + len(binary.AppendUvarint(nil, uint64(n))) - 1); got != want {
							t.Fatalf("%T, width %d, %d cells >> %d, widest at %d: %d bytes, want %d", c.in, width, n, shift, widest, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSlabEmptyVectors pins what "empty" means on the wire: an empty
// slice or map encodes as a nil one and arrives nil, and an empty
// vector under a map key keeps its key with a nil value.
func TestSlabEmptyVectors(t *testing.T) {
	in := protocol.CountReply{Out: []uint32{}, Vout: nil, Stats: protocol.Stats{Cells: 3}}
	if !bytes.Equal(encode(t, in), encode(t, protocol.CountReply{Stats: protocol.Stats{Cells: 3}})) {
		t.Error("an empty vector encodes differently from a nil one")
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
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Error("encoded bytes depend on map insertion order")
	}
	if out := wireRoundTrip(t, a); !reflect.DeepEqual(out, b) {
		t.Errorf("got %#v\nwant %#v", out, b)
	}
}

// TestAttachRejectsHostileSections feeds the decoder every malformed
// message encoding an attacker can write: type index, varints, string,
// slice and vector counts, vector widths, bools, map keys and trailing
// bytes. Each must come back as an error — never a panic, never a
// count-driven allocation.
func TestAttachRejectsHostileSections(t *testing.T) {
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	index := func(msg any) []byte {
		for i, m := range protocol.Messages() {
			if reflect.TypeOf(m) == reflect.TypeOf(msg) {
				return uv(uint64(i + 1))
			}
		}
		t.Fatalf("%T is not in Messages()", msg)
		return nil
	}
	// AggReply is Sums (map), Counts, VSums (map), VCounts, then Stats:
	// five zero integers and an empty Spans.
	agg, stats := index(protocol.AggReply{}), make([]byte, 6)
	aggSums := func(sums ...[]byte) []byte { return cat(agg, cat(sums...), []byte{1, 0, 0, 1, 0}, stats) }
	good := encode(t, protocol.AggReply{Sums: map[string][]uint64{"a": {1}}, Counts: []uint64{2}})
	if _, err := protocol.DecodeMessage(good); err != nil {
		t.Fatalf("well-formed message rejected: %v", err)
	}
	if _, err := protocol.DecodeMessage(aggSums(uv(0))); err != nil {
		t.Fatalf("hand-built empty AggReply rejected: %v", err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"unknown type index", uv(uint64(len(protocol.Messages()) + 1))},
		{"type index overflows uvarint", bytes.Repeat([]byte{0xff}, 11)},
		{"message without vector fields", cat(encode(t, protocol.PingRequest{}), []byte{1, 1, 7})},
		{"nil payload", cat(uv(0), []byte{1, 1, 7})},
		{"truncated varint", cat(index(protocol.StoreDeltaReply{}), []byte{0x80})},
		{"string length past the body", cat(index(protocol.QueryDoneRequest{}), uv(5), []byte("ab"))},
		{"slice count past the body", cat(index(protocol.ListTablesReply{}), uv(1<<20), []byte{0})},
		{"bool byte above 1", cat(index(protocol.ExtremeSubmitReply{}), []byte{2})},
		{"bool in two bytes", cat(index(protocol.ExtremeSubmitReply{}), []byte{0x81, 0x00})},
		{"varint not in its shortest form", cat(index(protocol.StoreReply{}), []byte{0x80, 0x00})},
		{"width 3", cat(agg, []byte{0, 3, 1, 7, 7, 7, 0, 1, 0}, stats)},
		{"width 0", cat(agg, []byte{0, 0, 1, 0, 1, 0}, stats)},
		{"width 16", cat(agg, []byte{0, 16, 0, 0, 1, 0}, stats)},
		{"width wider than the element", cat(index(protocol.PSUReply{}), []byte{4, 1, 1, 2, 3, 4}, stats)},
		{"8-byte PSI cells", cat(index(protocol.PSIReply{}), []byte{8, 1}, make([]byte, 8), []byte{1, 0}, stats)},
		{"8-byte count cells", cat(index(protocol.CountReply{}), []byte{1, 0, 8, 1}, make([]byte, 8), stats)},
		{"count exceeds the bytes left", cat(agg, []byte{0, 8}, uv(2), make([]byte, 15))},
		{"count × width overflows", cat(agg, []byte{0, 8}, uv(math.MaxUint64/4), make([]byte, 64))},
		{"huge count, empty section", cat(agg, []byte{0, 1}, uv(1<<40))},
		{"key length exceeds the bytes left", cat(agg, uv(1), uv(1<<30), []byte("k"))},
		{"repeated map key", aggSums(uv(2), []byte{1, 'k', 1, 1, 7, 1, 'k', 1, 1, 7})},
		{"map keys out of order", aggSums(uv(2), []byte{1, 'b', 1, 1, 7, 1, 'a', 1, 1, 7})},
		{"trailing byte", cat(good, []byte{1})},
		{"truncated after width", cat(agg, []byte{0, 1})},
		{"truncated data", good[:len(good)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := protocol.DecodeMessage(tc.body); err == nil || got != nil {
				t.Fatalf("DecodeMessage = %#v, %v; want an error", got, err)
			}
		})
	}
}
