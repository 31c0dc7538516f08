package transport

import (
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
		protocol.PSIRequest{Table: "t", QueryID: "q", Cells: []uint32{0, 7, 1 << 31}},
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
	frame, err := encodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer frameBufs.Put(frame)
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
		out, err := decodeFrame(frameBody(t, in))
		if err != nil {
			t.Fatalf("%T: %v", in.Payload, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%T: round trip changed the envelope:\n got %#v\nwant %#v", in.Payload, out, in)
		}
	}
}

// TestDecodeFrameHostileBodies asserts every way a frame body can be
// wrong at the frame level ends in one of the two typed errors.
func TestDecodeFrameHostileBodies(t *testing.T) {
	good := frameBody(t, &envelope{ID: 1, Payload: protocol.PSIReply{Out: []uint32{1, 2, 3}}})
	hlen := int(binary.BigEndian.Uint32(good[1:5]))
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	noVectors := frameBody(t, &envelope{ID: 1, Payload: protocol.PingReply{Site: "s"}})
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty body", nil, ErrFrameVersion},
		{"version 0", mut(func(b []byte) []byte { b[0] = 0; return b }), ErrFrameVersion},
		{"future version", mut(func(b []byte) []byte { b[0] = frameVersion + 1; return b }), ErrFrameVersion},
		{"pre-slab gob frame", []byte("\x2c\xff\x81\x03\x01\x01\x08envelope"), ErrFrameVersion},
		{"version byte only", good[:1], ErrCorruptFrame},
		{"envelope length past the body", mut(func(b []byte) []byte { binary.BigEndian.PutUint32(b[1:5], 1<<31); return b }), ErrCorruptFrame},
		{"envelope cut short", mut(func(b []byte) []byte { binary.BigEndian.PutUint32(b[1:5], uint32(hlen-3)); return b }), ErrCorruptFrame},
		{"garbage envelope", mut(func(b []byte) []byte { copy(b[5:5+hlen], "this is not gob data"); return b }), ErrCorruptFrame},
		{"trailing byte after the slabs", append(append([]byte(nil), good...), 0), ErrCorruptFrame},
		{"slab cut short", good[:len(good)-1], ErrCorruptFrame},
		{"slabs on a message without vectors", append(noVectors, good[5+hlen:]...), ErrCorruptFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := decodeFrame(tc.body)
			if !errors.Is(err, tc.want) {
				t.Fatalf("decodeFrame = %#v, %v; want %v", env, err, tc.want)
			}
		})
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
	_, err := encodeFrame(&envelope{ID: 1, Payload: msg})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("rejecting an 8 MiB message allocated %d bytes", got)
	}
}

// TestGobOnlyInFrameCodec keeps the wire format in one place: in this
// package's non-test source, gob.NewEncoder may appear only in
// encodeFrame and gob.NewDecoder only in decodeFrame.
func TestGobOnlyInFrameCodec(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{"NewEncoder": "encodeFrame", "NewDecoder": "decodeFrame"}
	seen := map[string]int{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "gob" {
						seen[sel.Sel.Name]++
						if allowed[sel.Sel.Name] != fn.Name.Name {
							t.Errorf("gob.%s used in %s; the frame codec is the only gob caller", sel.Sel.Name, fn.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	if seen["NewEncoder"] != 1 || seen["NewDecoder"] != 1 {
		t.Errorf("gob call sites = %v, want exactly one NewEncoder and one NewDecoder", seen)
	}
}

// FuzzFrameCodec feeds arbitrary frame bodies to the decoder. It must
// never panic, every failure must be one of the two typed errors, and
// whatever it accepts must survive a re-encode unchanged.
func FuzzFrameCodec(f *testing.F) {
	for _, msg := range bulkFrames() {
		f.Add(frameBody(f, &envelope{ID: 3, Payload: msg}))
	}
	f.Add(frameBody(f, &envelope{Err: "transport: frame exceeds size limit"}))
	f.Add([]byte{})
	f.Add([]byte{frameVersion, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := decodeFrame(body)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrFrameVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		frame, err := encodeFrame(env)
		if err != nil {
			return // gob decodes some values it refuses to encode (e.g. a nil interface element)
		}
		defer frameBufs.Put(frame)
		again, err := decodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("re-encode changed the envelope:\n got %#v\nwant %#v", again, env)
		}
	})
}
