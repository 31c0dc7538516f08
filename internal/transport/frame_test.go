package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prism/internal/analysis"
	"prism/internal/levec"
	"prism/internal/protocol"
)

// bulkFrames is one populated message per type that carries bulk
// vectors, at sizes that exercise every wire width.
func bulkFrames() []any {
	return []any{
		protocol.StoreRequest{Owner: 1, Spec: protocol.TableSpec{Name: "t", B: 3, AggCols: []string{"DT"}},
			Shard: protocol.Range{Offset: 3, Count: 3}, UploadID: "e/1",
			ChiAdd: []uint16{1, 2, 112}, ChiBarAdd: []uint16{0, 300, 65535},
			SumCols:  map[string][]uint64{"DT": {1 << 60, 2, 3}, "PK": {4, 5, 6}},
			VSumCols: map[string][]uint64{"DT": {7, 8, 1 << 33}},
			CountCol: []uint64{1, 1, 1}, VCountCol: []uint64{1 << 20, 0, 0}},
		protocol.StoreDeltaRequest{Owner: 2, Table: "t", Pos: []uint64{5, 70000}, Chi: []uint16{9, 10},
			Sums: map[string][]uint64{"DT": {11, 12}}, Cnt: []uint64{1, 2},
			VPos: []uint64{6}, ChiBar: []uint16{13}, VSums: map[string][]uint64{"DT": {1 << 61}}, VCnt: []uint64{3}},
		protocol.PSIReply{Out: []uint32{1, 2950, 17}, Stats: protocol.Stats{Cells: 3, ComputeNS: 5}},
		protocol.PSIReply{Out: []uint32{17, 1}, Vout: []uint32{2950, 1}},
		protocol.CountReply{Out: []uint32{1, 2}, Vout: []uint32{3, 4}},
		protocol.PSUReply{Out: []uint16{0, 112, 5}},
		protocol.AggRequest{Table: "t", Cols: []string{"DT"}, Z: []uint64{1 << 60, 1}, VZ: []uint64{2, 3}},
		protocol.AggReply{Sums: map[string][]uint64{"DT": {1 << 60}, "PK": {9}}, Counts: []uint64{4},
			VSums: map[string][]uint64{"DT": {1 << 59}}, VCounts: []uint64{5}},
		// The vector extreme round (2 owners × 3 cells): its shapes as they
		// leave an owner, a server and the announcer.
		protocol.ExtremeSubmitRequest{QueryID: "q", Kind: protocol.KindMax, Owner: 1, VShares: [][]byte{{9, 8}, {7}, {6, 5, 4}}},
		protocol.AnnounceRequest{QueryID: "q", Kind: protocol.KindMax, ServerIdx: 1,
			Slots: [][][]byte{{{1}, {2}, {3}}, {{4}, {5}, {6}}}},
		protocol.AnnounceFetchReply{Ready: true, ValueShares: [][]byte{{1}, {2}, {3}}, IndexShares: []uint16{0, 112, 1}},
		protocol.ExtremeFetchReply{Ready: true, ValueShares: [][]byte{{1}, {2}, {3}}, IndexShares: []uint16{0, 112, 1}},
		protocol.ClaimSubmitRequest{QueryID: "q", Owner: 1, Shares: []uint16{3, 110, 0}},
		protocol.ClaimFetchReply{Ready: true, Fpos: []uint16{1, 0, 1, 112, 0, 7}},
		protocol.ExtremeReduceReply{Values: [][]byte{{9}}, WinnerSub: 1, WinnerCell: 2, HasWinner: true},
	}
}

// frameBody encodes env and returns a private copy of the frame body.
func frameBody(t testing.TB, env *envelope) []byte {
	t.Helper()
	frame, buf, err := encodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer frameBufs.Put(buf)
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
		t.Fatalf("length prefix %d on a %d-byte body", got, len(frame)-4)
	}
	return append([]byte(nil), frame[4:]...)
}

// TestFrameCodecRoundTrip sends each bulk message, an error envelope and
// a payload-free envelope through the one encode/decode pair.
func TestFrameCodecRoundTrip(t *testing.T) {
	envs := []*envelope{{ID: 7, Err: "boom"}, {ID: 8}}
	for i, msg := range bulkFrames() {
		envs = append(envs, &envelope{ID: uint64(100 + i), Payload: msg})
	}
	for _, in := range envs {
		out, _, err := decodeFrame(frameBody(t, in), true)
		if err != nil {
			t.Fatalf("%T: %v", in.Payload, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%T: round trip changed the envelope:\n got %#v\nwant %#v", in.Payload, out, in)
		}
	}
}

// TestDecodeFrameHostileBodies asserts every way a frame body can be
// wrong at the frame level ends in one of the two typed errors: a
// version byte other than frameVersion — version-1 gob frames and the
// frames of versions 2 and 3 among them — is ErrFrameVersion, anything else
// ErrCorruptFrame.
func TestDecodeFrameHostileBodies(t *testing.T) {
	cells := make([]uint32, 100)
	for i := range cells {
		cells[i] = uint32(i)
	}
	good := frameBody(t, &envelope{ID: 1, Payload: protocol.PSIReply{Out: cells}})
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty body", nil, ErrFrameVersion},
		{"version 0", mut(func(b []byte) []byte { b[0] = 0; return b }), ErrFrameVersion},
		{"version 1: gob envelope and slabs", []byte{1, 0, 0, 0, 3, 0x03, 0xff, 0x82}, ErrFrameVersion},
		{"version 2: a PSIRequest with its frontier field", []byte{2, 1, 0, 0}, ErrFrameVersion},
		{"version 3: a PingRequest at its index in the 42-type table", []byte{3, 1, 0, 39}, ErrFrameVersion},
		{"future version", mut(func(b []byte) []byte { b[0] = frameVersion + 1; return b }), ErrFrameVersion},
		{"pre-slab gob frame", []byte("\x2c\xff\x81\x03\x01\x01\x08envelope"), ErrFrameVersion},
		{"version byte only", good[:1], ErrCorruptFrame},
		{"envelope cut short", []byte{frameVersion, 0x80}, ErrCorruptFrame},
		{"garbage envelope", append([]byte{frameVersion}, bytes.Repeat([]byte{0xff}, 11)...), ErrCorruptFrame},
		{"error string past the body", []byte{frameVersion, 1, 10, 'x'}, ErrCorruptFrame},
		{"unknown type index", []byte{frameVersion, 1, 0, 99}, ErrCorruptFrame},
		{"vector cut short", good[:len(good)/2], ErrCorruptFrame},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrCorruptFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, _, err := decodeFrame(tc.body, true)
			if !errors.Is(err, tc.want) {
				t.Fatalf("decodeFrame = %#v, %v; want %v", env, err, tc.want)
			}
		})
	}
}

// TestSmallFramesAreSmall pins the per-message overhead of the control
// rounds: a frame body is its version byte, id, error string and type
// index, then the fields themselves, with no type descriptors.
func TestSmallFramesAreSmall(t *testing.T) {
	for _, msg := range []any{
		protocol.PingRequest{},
		protocol.QueryDoneRequest{QueryID: "q-123"},
		protocol.ExtremeSubmitReply{Forwarded: true},
	} {
		if n := len(frameBody(t, &envelope{ID: 1 << 20, Payload: msg})); n > 32 {
			t.Errorf("%T: %d-byte frame body, want at most 32", msg, n)
		}
	}
}

// TestEqualMessagesEqualFrames asserts the whole frame, not only its
// vectors, is a function of the message: encoding twice, encoding an
// equal message whose maps were built in another order, or one whose
// empty maps are nil gives the same bytes.
func TestEqualMessagesEqualFrames(t *testing.T) {
	build := func(keys ...string) protocol.AggReply {
		rep := protocol.AggReply{Sums: map[string][]uint64{}, VSums: map[string][]uint64{},
			Stats: protocol.Stats{Cells: 3, Spans: []protocol.Span{{Name: "server:fetch", Site: "g0/s1", DurNS: 9}}}}
		for _, k := range keys {
			rep.Sums[k] = []uint64{uint64(len(k)), 1 << 40, 7}
			rep.VSums[k] = []uint64{uint64(len(k))}
		}
		return rep
	}
	keys := []string{"DT", "LN", "PK", "SK", "a", "b"}
	first := frameBody(t, &envelope{ID: 5, Payload: build(keys...)})
	again := frameBody(t, &envelope{ID: 5, Payload: build(keys...)})
	slices.Reverse(keys)
	reversed := frameBody(t, &envelope{ID: 5, Payload: build(keys...)})
	if !bytes.Equal(first, again) || !bytes.Equal(first, reversed) {
		t.Errorf("equal AggReplys framed differently:\n%x\n%x\n%x", first, again, reversed)
	}
	empty, none := build(), build()
	none.Sums, none.VSums = nil, nil
	if !bytes.Equal(frameBody(t, &envelope{ID: 5, Payload: empty}), frameBody(t, &envelope{ID: 5, Payload: none})) {
		t.Error("an AggReply with empty maps framed differently from one with nil maps")
	}
}

// TestOverCapRejectedBeforeAllocation asserts a message whose vectors
// alone exceed the cap fails from the size computed up front: nothing
// the size of the message is allocated on the way to the error.
func TestOverCapRejectedBeforeAllocation(t *testing.T) {
	defer SetFrameLimit(64 << 10)()
	msg := protocol.AggReply{Counts: make([]uint64, 1<<20)}
	for i := range msg.Counts {
		msg.Counts[i] = ^uint64(0) // 8 MiB on the wire
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := encodeFrame(&envelope{ID: 1, Payload: msg})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("rejecting an 8 MiB message allocated %d bytes", got)
	}
}

// TestGobOnlyInViewio keeps gob off the wire: encoding/gob is imported
// only by internal/viewio, whose view files never cross a connection
// (the gob-off-the-wire row of prism-vet's shape table).
func TestGobOnlyInViewio(t *testing.T) {
	pkgs, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{analysis.Shape})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.HasPrefix(d.Message, "gob-off-the-wire:") {
			t.Error(d)
		}
	}
}

// populated returns a value of type t with every exported field set to
// something non-zero, so a seed frame exercises every field's encoding.
func populated(t reflect.Type, seed int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed) << (seed % 40))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed) << (seed % 40))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 2, 2))
		for i := 0; i < 2; i++ {
			v.Index(i).Set(populated(t.Elem(), seed+i+1))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		for i := 0; i < 2; i++ {
			v.SetMapIndex(populated(t.Key(), seed+i+1), populated(t.Elem(), seed+i+3))
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(populated(t.Field(i).Type, seed+i+1))
			}
		}
	}
	return v
}

// laidForm is msg, a message of a type whose vectors are laid, as its
// producer lays it: every vector of the length n of its first non-empty
// one (every vector, when all are empty) a reservation, in lay with its
// Stats cleared and in finish with them kept. cells are the reserved
// vectors, in the codec's walk order.
func laidForm(msg any) (lay, finish any, cells []any, n int) {
	v := reflect.New(reflect.TypeOf(msg)).Elem()
	v.Set(reflect.ValueOf(msg))
	var vecs []any                 // every vector, in walk order
	var sets []func(reflect.Value) // each one's replacement
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Interface().(type) {
		case []uint16, []uint32, []uint64:
			vecs, sets = append(vecs, f.Interface()), append(sets, f.Set)
		case map[string][]uint64:
			if f.IsNil() {
				continue
			}
			m := reflect.MakeMap(f.Type())
			keys := f.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
			for _, k := range keys {
				m.SetMapIndex(k, f.MapIndex(k))
				vecs = append(vecs, f.MapIndex(k).Interface())
				sets = append(sets, func(x reflect.Value) { m.SetMapIndex(k, x) })
			}
			f.Set(m)
		}
	}
	n = -1
	for _, vec := range vecs {
		if l := reflect.ValueOf(vec).Len(); n < 0 && l > 0 {
			n = l
		}
	}
	n = max(n, 0)
	for k, vec := range vecs {
		if reflect.ValueOf(vec).Len() != n {
			continue
		}
		cells = append(cells, vec)
		switch vec.(type) {
		case []uint16:
			sets[k](reflect.ValueOf(protocol.Reserve[uint16]()))
		case []uint32:
			sets[k](reflect.ValueOf(protocol.Reserve[uint32]()))
		default:
			sets[k](reflect.ValueOf(protocol.Reserve[uint64]()))
		}
	}
	finish = v.Interface()
	if st := v.FieldByName("Stats"); st.IsValid() {
		st.SetZero()
	}
	return v.Interface(), finish, cells, n
}

// putLaid writes cells as reserved vector k of l, a block of 100 cells
// at a time.
func putLaid(l *protocol.Laid, k int, cells any) {
	const blk = 100
	switch c := cells.(type) {
	case []uint16:
		for at := 0; at < len(c); at += blk {
			protocol.Cells[uint16](l, k).Put(at, c[at:min(at+blk, len(c))])
		}
	case []uint32:
		for at := 0; at < len(c); at += blk {
			protocol.Cells[uint32](l, k).Put(at, c[at:min(at+blk, len(c))])
		}
	case []uint64:
		for at := 0; at < len(c); at += blk {
			protocol.Cells[uint64](l, k).Put(at, c[at:min(at+blk, len(c))])
		}
	}
}

// checkLaid holds the laid encode of env's payload, when its type is one
// a round lays, to the declared-width rule: laid at its cells' full
// width and at the widest of its vectors' widths, its reserved vectors
// put from env's cells and finished with env's Stats, the payload
// decodes to env's payload, is the ordinary encoding's length with every
// reserved vector widened to the declared width, is as long with every
// cell zero, and frames behind the header encodeFrame gives env; every
// buffer goes back.
func checkLaid(t *testing.T, env *envelope) {
	switch env.Payload.(type) {
	case protocol.PSIReply, protocol.CountReply, protocol.PSUReply, protocol.AggReply, protocol.AggRequest:
	default:
		return
	}
	m, err := protocol.Measure(env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	wantFrame := frameBody(t, &envelope{ID: env.ID, Payload: env.Payload})
	header := wantFrame[:len(wantFrame)-m.Size]
	held := HeldFrames()
	lay, finish, cells, n := laidForm(env.Payload)
	full, widest := 0, 1
	zeros := make([]any, len(cells))
	for k, c := range cells {
		v := reflect.ValueOf(c)
		full = int(v.Type().Elem().Size())
		for i := range v.Len() {
			for widest < full && v.Index(i).Uint()>>(8*widest) != 0 {
				widest *= 2
			}
		}
		zeros[k] = reflect.MakeSlice(v.Type(), n, n).Interface()
	}
	for _, w := range []int{full, widest} {
		if w == 0 {
			continue // nothing reserved
		}
		size := m.Size
		for _, c := range cells {
			size += n * (w - vectorWidth(c))
		}
		for pass, put := range [][]any{cells, zeros} {
			l, err := Lay(lay, n, w)
			if err != nil {
				t.Fatalf("Lay %T at width %d: %v", lay, w, err)
			}
			for k, c := range put {
				putLaid(l, k, c)
			}
			if err := l.Finish(finish); err != nil {
				t.Fatalf("Finish %T at width %d: %v", finish, w, err)
			}
			if len(l.Payload()) != size {
				t.Fatalf("laid %T at width %d is %d bytes, want %d", finish, w, len(l.Payload()), size)
			}
			if pass == 0 {
				got, err := protocol.DecodeMessage(l.Payload())
				if err != nil || !reflect.DeepEqual(got, env.Payload) {
					t.Fatalf("laid %T at width %d decodes to %#v, %v", finish, w, got, err)
				}
			}
			payload := slices.Clone(l.Payload())
			frame, buf, err := encodeFrame(&envelope{ID: env.ID, Payload: l})
			if err != nil {
				t.Fatalf("framing a laid %T: %v", finish, err)
			}
			if !bytes.Equal(frame[4:], append(slices.Clone(header), payload...)) || int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
				t.Fatalf("laid %T at width %d frames as %x, want header %x then its payload", finish, w, frame, header)
			}
			frameBufs.Put(buf)
		}
	}
	if HeldFrames() != held {
		t.Fatalf("%d frames held after laying, want %d", HeldFrames(), held)
	}
}

// vectorWidth is the ordinary encoding's width of c, a []uint16,
// []uint32 or []uint64.
func vectorWidth(c any) int {
	switch c := c.(type) {
	case []uint16:
		return levec.Width(c)
	case []uint32:
		return levec.Width(c)
	default:
		return levec.Width(c.([]uint64))
	}
}

// FuzzFrameCodec feeds arbitrary frame bodies to the decoder. It must
// never panic, the borrowing decode must return what the copying one
// does (the same envelope or the same error), every failure must be one
// of the two typed errors, and
// whatever it accepts must re-encode to a frame that decodes to the same
// envelope and encodes to the same bytes again; laid, a payload of a
// type whose vectors are laid must decode to itself with every reserved
// vector at the declared width (checkLaid).
// Seeded with one populated frame per protocol.Messages() entry, whose
// vectors hold two elements, and with vectors of over 300 at every
// width, which reach the width scan's block loop and the packer's word
// loops; the AggRequest among them is borrowed at width 8 and copied
// below it. Then come laid payloads whose vectors are narrower than
// their cells (width-1 PSI cells, width-4 field shares), empty, or
// followed by Stats whose spans overflow the room Lay leaves. Last come
// a populated AggRequest's frame under the version byte of every other
// epoch, which must be refused whole.
func FuzzFrameCodec(f *testing.F) {
	for i, msg := range protocol.Messages() {
		f.Add(frameBody(f, &envelope{ID: 3, Payload: populated(reflect.TypeOf(msg), i).Interface()}))
	}
	for _, width := range []int{1, 2, 4, 8} {
		u64 := make([]uint64, 300+width)
		u32 := make([]uint32, len(u64))
		u16 := make([]uint16, len(u64))
		for i := range u64 {
			u64[i] = (uint64(i+1) * 0x9E3779B97F4A7C15) >> (64 - 8*width)
			u32[i], u16[i] = uint32(u64[i]), uint16(u64[i])
		}
		f.Add(frameBody(f, &envelope{ID: 4, Payload: protocol.AggReply{Sums: map[string][]uint64{"DT": u64}, Counts: u64}}))
		f.Add(frameBody(f, &envelope{ID: 5, Payload: protocol.PSIReply{Out: u32, Vout: u32[:257]}}))
		f.Add(frameBody(f, &envelope{ID: 6, Payload: protocol.PSUReply{Out: u16}}))
		f.Add(frameBody(f, &envelope{ID: 7, Payload: protocol.AggRequest{Table: "t", Cols: []string{"DT"}, Z: u64, VZ: u64[:257]}}))
	}
	narrow := make([]uint64, 300)
	for i := range narrow {
		narrow[i] = uint64(i) * 0x9E3779B9 >> 32 // width 4
	}
	spans := make([]protocol.Span, 3)
	for i := range spans {
		spans[i] = protocol.Span{Name: "server:compute", Site: "g0/s1", StartNS: 1 << 60, DurNS: 1 << 40, Note: "sub-query 7"}
	}
	for _, msg := range []any{
		protocol.PSIReply{Out: []uint32{1, 2, 255, 0}, Vout: []uint32{3, 4, 5, 6}}, // width 1
		protocol.CountReply{Out: []uint32{1 << 20, 1}, Vout: []uint32{3, 4}},       // one vector wider
		protocol.AggReply{Sums: map[string][]uint64{"DT": narrow}, VSums: map[string][]uint64{"DT": narrow[:300]}},
		protocol.AggRequest{Table: "t", Cols: []string{"DT"}, Z: narrow, VZ: narrow},
		protocol.PSIReply{}, protocol.PSUReply{Out: []uint16{}}, protocol.AggRequest{Table: "t"},
		protocol.AggReply{Sums: map[string][]uint64{"DT": nil}, Counts: nil},
		protocol.PSIReply{Out: []uint32{1 << 31, 7}, Stats: protocol.Stats{Cells: 2, Spans: spans}},
		protocol.AggReply{Counts: []uint64{1 << 63}, VCounts: []uint64{1}, Stats: protocol.Stats{Spans: spans}},
	} {
		f.Add(frameBody(f, &envelope{ID: 9, Payload: msg}))
	}
	f.Add(frameBody(f, &envelope{Err: "transport: frame exceeds size limit"}))
	f.Add([]byte{})
	f.Add([]byte{frameVersion, 0, 0, 0, 0})
	agg := frameBody(f, &envelope{ID: 8, Payload: populated(reflect.TypeOf(protocol.AggRequest{}), 1).Interface()})
	for _, v := range []byte{0, 1, 2, 3, frameVersion + 1} {
		f.Add(append([]byte{v}, agg[1:]...))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		env, _, err := decodeFrame(body, false)
		lent, _, lerr := decodeFrame(slices.Clone(body), true)
		if fmt.Sprint(lerr) != fmt.Sprint(err) || !reflect.DeepEqual(lent, env) {
			t.Fatalf("the borrowing decode disagrees with the copying one:\n got %#v, %v\nwant %#v, %v", lent, lerr, env, err)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrFrameVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		frame := frameBody(t, env)
		again, _, err := decodeFrame(frame, true)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("re-encode changed the envelope:\n got %#v\nwant %#v", again, env)
		}
		if !bytes.Equal(frameBody(t, again), frame) {
			t.Fatal("an accepted frame does not re-encode to the same bytes twice")
		}
		checkLaid(t, env)
	})
}

// BenchmarkFrameCodec times the peer codec's round trip, encodeFrame
// then decodeFrame, on the four frames the repo benchmark's
// codec_ns_per_cell probe replays, at 2^18 cells and the widths they
// take there: PSI and count cells in 2 bytes, field-element shares in 8
// and χ shares mod δ = 113 in 1.
func BenchmarkFrameCodec(b *testing.B) {
	const n = 1 << 18
	vec := func(width int, seed uint64) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = (seed + uint64(i)) * 0x9E3779B97F4A7C15 >> (64 - 8*width)
		}
		return v
	}
	cells := func(seed uint64) []uint32 { // values below 2^16, as mod η′
		out := make([]uint32, n)
		for i, x := range vec(2, seed) {
			out[i] = uint32(x)
		}
		return out
	}
	chi := func(seed uint64) []uint16 { // additive shares mod δ
		out := make([]uint16, n)
		for i, x := range vec(1, seed) {
			out[i] = uint16(x % 113)
		}
		return out
	}
	for _, f := range []struct {
		name string
		msg  any
	}{
		{"psi_reply", protocol.PSIReply{Out: cells(1), Vout: cells(2)}},
		{"count_reply", protocol.CountReply{Out: cells(3), Vout: cells(4)}},
		{"agg_reply", protocol.AggReply{Sums: map[string][]uint64{"DT": vec(8, 7)}, VSums: map[string][]uint64{"DT": vec(8, 8)}}},
		{"store_request", protocol.StoreRequest{Spec: protocol.TableSpec{Name: "t", B: n, AggCols: []string{"DT"}, HasVerify: true, HasCount: true},
			ChiAdd: chi(5), ChiBarAdd: chi(6), SumCols: map[string][]uint64{"DT": vec(8, 9)}, VSumCols: map[string][]uint64{"DT": vec(8, 10)},
			CountCol: vec(8, 11), VCountCol: vec(8, 12)}},
	} {
		b.Run(f.name, func(b *testing.B) {
			env := &envelope{ID: 1, Payload: f.msg}
			for range b.N {
				frame, buf, err := encodeFrame(env)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := decodeFrame(frame[4:], true); err != nil {
					b.Fatal(err)
				}
				frameBufs.Put(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/cell")
		})
	}
}
