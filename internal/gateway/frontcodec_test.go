package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
	"testing"

	"prism/internal/ownerengine"
)

// fuzzResponse builds a Response from fuzz input: strings in every string
// field and as Sums columns, numbers of every magnitude (each 8 bytes of
// data, shifted right by its own low six bits) as cells and map entries.
func fuzzResponse(id, text string, flags uint8, n int64, data []byte) *Response {
	var nums []uint64
	for ; len(data) >= 8; data = data[8:] {
		v := binary.LittleEndian.Uint64(data)
		nums = append(nums, v>>(v&63))
	}
	cellMap := func(vs []uint64) map[uint64]uint64 {
		m := make(map[uint64]uint64)
		for i := 0; i+1 < len(vs); i += 2 {
			m[vs[i]] = vs[i+1]
		}
		return m
	}
	r := &Response{ID: id, OK: flags&1 != 0, Code: text, Err: text, Ticket: id, Done: flags&2 != 0,
		Cells: nums, Count: int(n), QueueMS: n, ExecMS: -n}
	if flags&4 != 0 {
		g := uint64(n)
		r.Global = &g
	}
	if flags&8 != 0 {
		r.Sums = map[string]map[uint64]uint64{id: cellMap(nums), text: nil}
	}
	if flags&16 != 0 {
		r.Counts, r.Extreme = cellMap(nums), cellMap(nums[len(nums)/2:])
	}
	if flags&32 != 0 && nums == nil {
		r.Cells, r.Sums, r.Counts = []uint64{}, map[string]map[uint64]uint64{}, map[uint64]uint64{}
	}
	return r
}

// fuzzCells is the fuzz input fuzzResponse reads as cells: each cell x
// as a word v with v>>(v&63) = x, shifted by 6 when x < 2^58 and else
// by 0, which needs x's low six bits clear.
func fuzzCells(cells ...uint64) []byte {
	var data []byte
	for _, x := range cells {
		v := x<<6 | 6
		if x >= 1<<58 {
			if x&63 != 0 {
				panic(fmt.Sprintf("fuzzCells: %d has no encoding", x))
			}
			v = x
		}
		data = binary.LittleEndian.AppendUint64(data, v)
	}
	return data
}

// checkDecode holds decodeResponse to json.Unmarshal on one frame: the
// same error-ness, the same value on success, and a fast path that only
// takes frames encoding/json decodes to the very value it returns.
func checkDecode(t *testing.T, frame []byte) {
	t.Helper()
	var want Response
	werr := json.Unmarshal(frame, &want)
	if fast, ok := fastResponse(frame); ok && (werr != nil || !reflect.DeepEqual(*fast, want)) {
		t.Fatalf("fast path on %q: %+v, json.Unmarshal: %+v (err %v)", frame, *fast, want, werr)
	}
	got, err := decodeResponse(frame)
	if (err != nil) != (werr != nil) {
		t.Fatalf("decodeResponse(%q) err = %v, json.Unmarshal err = %v", frame, err, werr)
	}
	if err == nil && !reflect.DeepEqual(*got, want) {
		t.Fatalf("decodeResponse(%q) = %+v, json.Unmarshal: %+v", frame, *got, want)
	}
}

// FuzzFrontReply is the reply codec's differential test. Encoder:
// appendResponse must write json.Marshal's bytes for any Response.
// Decoder: for any frame — the encoded one and the raw fuzz bytes —
// decodeResponse must agree with json.Unmarshal.
func FuzzFrontReply(f *testing.F) {
	cells := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 9<<3|3), 10<<4|4)
	f.Add("", "", uint8(0), int64(0), []byte(nil))                                  // zero-valued fields
	f.Add("c1", "shed", uint8(0xff), int64(42), cells)                              // every field, a nil inner Sums map
	f.Add("<a>&b", "x<y&z>", uint8(8|16), int64(-7), cells)                         // HTML escaping in values and Sums keys
	f.Add("\u2028", "naïve — résumé", uint8(1), int64(1), []byte{})                 // U+2028, a non-ASCII error string
	f.Add("\xff\xfe", "bad \xc3\x28 utf8\x00\"\\", uint8(8), int64(3), []byte(nil)) // invalid UTF-8, control bytes, quotes
	f.Add("e", "", uint8(32), int64(-1<<63), []byte(nil))                           // empty non-nil slice and maps
	f.Add("m", "n", uint8(8|16), int64(1<<62), bytes.Repeat([]byte{0xff}, 64))      // the widest numbers
	// Cells through appendResponse's odometer: ascending across the
	// carries 99→100, 999→1002 and 9999→10000, repeated, descending, and
	// ascending at the top of the uint64 range.
	const top = 1<<64 - 64
	for _, cells := range [][]uint64{
		{0, 97, 98, 99, 100, 101, 998, 999, 1002, 9998, 9999, 10000, 10001},
		{5, 5, 5, 7, 7, 100, 100},
		{10000, 9999, 1002, 999, 100, 99, 3, 0},
		{top - 4096, top - 64, top},
	} {
		f.Add("", "", uint8(1), int64(0), fuzzCells(cells...))
	}
	for _, frame := range []string{
		`{"id":"c1","ok":true,"done":true,"cells":[1,2,3],"count":3,"sums":{"DT":{"10":5,"9":4}},` +
			`"counts":{"1":2},"extreme":{"3":4},"global":7,"queue_ms":1,"exec_ms":2}`,
		" { \"ok\" : true ,\n\t\"cells\" : [ 1 , 2 ] ,\r\"global\":0 } ",
		`{"cells":[],"sums":{},"counts":{},"extreme":{}}`,
		`{"cells":[18446744073709551615],"count":9223372036854775807}`,
		`{"OK":true}`, `{"ok":true,"ok":false}`, `{"ok":true,"x":1}`, `{"id":"a\"b"}`, `{"err":"é"}`,
		`{"id":null}`, `{"sums":{"a":null}}`, `{"cells":null}`,
		`{"count":-1}`, `{"count":1.5}`, `{"count":1e3}`, `{"count":01}`, `{"count":9223372036854775808}`,
		`{"cells":[18446744073709551616]}`, `{"global":-0}`,
		`{"counts":{"007":1}}`, `{"counts":{"1":1,"1":2}}`, `{"counts":{" 1":1}}`, `{"counts":{"1 ":1}}`,
		`{"sums":{"a":{},"a":{"1":1}}}`, `{"cells":[1,]}`, `{"ok":true,}`, `{,"ok":true}`,
		`{"ok":true} x`, `{"ok":true}}`, `null`, `[]`, ``, `{"ok":tru}`, `{"cells":[1 2]}`,
	} {
		f.Add("", "", uint8(0), int64(0), []byte(frame))
	}
	f.Fuzz(func(t *testing.T, id, text string, flags uint8, n int64, data []byte) {
		r := fuzzResponse(id, text, flags, n, data)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendResponse(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("appendResponse:\n%s\njson.Marshal:\n%s", got, want)
		}
		checkDecode(t, want)
		checkDecode(t, data)
	})
}

// TestFrontRepliesTakeFastPath: every reply the gateway writes for a
// successful ping, submit and poll of each query kind decodes without
// the json.Unmarshal fallback, to the value json.Unmarshal gives.
func TestFrontRepliesTakeFastPath(t *testing.T) {
	const big = 1<<61 - 1 // a sum near the field's top: 19 digits
	cells := []uint64{3, 10, 262143}
	addr, _ := startGateway(t, Config{Backends: []Backend{&stub{exec: func(_ context.Context, q Query) (*Result, error) {
		res := &Result{Cells: cells}
		switch q.Kind.Family() {
		case ownerengine.FamilyCount:
			res = &Result{Count: len(cells)}
		case ownerengine.FamilyAgg:
			res.Sums = map[string]map[uint64]uint64{}
			for _, col := range q.Cols {
				res.Sums[col] = map[uint64]uint64{3: big, 10: 0, 262143: 42}
			}
			res.Counts = map[uint64]uint64{3: 2, 10: 1, 262143: 5}
		case ownerengine.FamilyExtreme:
			res.Extreme = map[uint64]ownerengine.ExtremeCell{3: {Value: big}, 10: {Value: 0}, 262143: {Value: 9}}
			res.Global = &ownerengine.ExtremeCell{Value: big}
		}
		return res, nil
	}}}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(req Request) *Response {
		t.Helper()
		body, _ := json.Marshal(req)
		if err := WriteFrame(conn, body, MaxFrontFrame); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(conn, MaxReplyFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, ok := fastResponse(frame)
		if !ok {
			t.Fatalf("reply to %+v fell back to json.Unmarshal: %s", req, frame)
		}
		checkDecode(t, frame)
		if !resp.OK {
			t.Fatalf("reply to %+v failed: %s", req, frame)
		}
		return resp
	}
	roundTrip(Request{ID: "p", Op: OpPing})
	for _, name := range ownerengine.KindNames() {
		kind, _ := ownerengine.KindByName(name)
		var cols []string
		if ownerengine.CheckCols(kind, nil) != nil {
			cols = []string{"DT"}
		}
		sub := roundTrip(Request{ID: "s-" + name, Op: OpSubmit, Query: name, Cols: cols})
		if res := roundTrip(Request{ID: "r-" + name, Op: OpPoll, Ticket: sub.Ticket, WaitMS: 10_000}); !res.Done {
			t.Fatalf("%s: poll answered before the stub's result", name)
		}
	}
}

// BenchmarkFrontReply encodes and decodes a PSU-sized reply — 171k cells
// of a 2^18-cell domain — through encoding/json and through the reply
// codec, in ns per cell.
func BenchmarkFrontReply(b *testing.B) {
	const domain, n = 1 << 18, 171_000
	rng := rand.New(rand.NewPCG(1, 2))
	cells := make([]uint64, 0, n)
	for _, c := range rng.Perm(domain)[:n] {
		cells = append(cells, uint64(c))
	}
	slices.Sort(cells)
	resp := &Response{ID: "c2", OK: true, Done: true, Cells: cells, QueueMS: 1, ExecMS: 12}
	frame := appendResponse(nil, resp)
	if _, ok := fastResponse(frame); !ok {
		b.Fatal("the benchmark reply does not take the fast path")
	}
	perCell := func(b *testing.B, body func()) {
		for range b.N {
			body()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/cell")
	}
	b.Run("encode/json", func(b *testing.B) {
		perCell(b, func() {
			if _, err := json.Marshal(resp); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("encode/codec", func(b *testing.B) {
		perCell(b, func() { replyBufs.Put(appendResponse(replyBufs.Get(replySize(resp))[:4], resp)) })
	})
	b.Run("decode/json", func(b *testing.B) {
		perCell(b, func() {
			var r Response
			if err := json.Unmarshal(frame, &r); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("decode/codec", func(b *testing.B) {
		perCell(b, func() {
			if _, err := decodeResponse(frame); err != nil {
				b.Fatal(err)
			}
		})
	})
}
