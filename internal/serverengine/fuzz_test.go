package serverengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// requestTypes are the request types Engine.Handle dispatches.
var requestTypes = []any{
	protocol.StoreRequest{}, protocol.StoreDeltaRequest{},
	protocol.PSIRequest{}, protocol.CountRequest{}, protocol.PSURequest{}, protocol.AggRequest{},
	protocol.ExtremeSubmitRequest{}, protocol.ExtremeFetchRequest{},
	protocol.ClaimSubmitRequest{}, protocol.ClaimFetchRequest{},
	protocol.ListTablesRequest{}, protocol.PingRequest{}, protocol.QueryDoneRequest{},
}

// Fuzzed vectors hold at most fuzzCells entries (four times the fuzzed
// table), strings at most 8 bytes and maps 3 keys, so no input allocates
// much.
const fuzzCells = 64

// fuzzRequests is the most requests one input sends.
const fuzzRequests = 4

// fill sets v from data and returns the bytes left: integers and bools
// are uvarints (a signed integer is the uvarint's bits), strings, slices
// and maps a length and then their contents, structs their exported
// fields in order. Missing bytes leave zero values.
func fill(v reflect.Value, data []byte) []byte {
	next := func(limit uint64) uint64 {
		n, k := binary.Uvarint(data)
		if k <= 0 {
			data = nil
			return 0
		}
		data = data[k:]
		return min(n, limit)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(next(1) == 1)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(next(^uint64(0))))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(next(^uint64(0)))
	case reflect.String:
		n := min(next(8), uint64(len(data)))
		v.SetString(string(data[:n]))
		data = data[n:]
	case reflect.Slice:
		n := int(next(fuzzCells))
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := range n {
			data = fill(s.Index(i), data)
		}
		v.Set(s)
	case reflect.Map:
		n := int(next(3))
		m := reflect.MakeMapWithSize(v.Type(), n)
		for range n {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			data = fill(val, fill(key, data))
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				data = fill(v.Field(i), data)
			}
		}
	}
	return data
}

// emit is fill's inverse: it appends the bytes fill reads v from.
func emit(v reflect.Value, out []byte) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return binary.AppendUvarint(out, 1)
		}
		return binary.AppendUvarint(out, 0)
	case reflect.Int, reflect.Int32, reflect.Int64:
		return binary.AppendUvarint(out, uint64(v.Int()))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(out, v.Uint())
	case reflect.String:
		return append(binary.AppendUvarint(out, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		out = binary.AppendUvarint(out, uint64(v.Len()))
		for i := range v.Len() {
			out = emit(v.Index(i), out)
		}
	case reflect.Map:
		out = binary.AppendUvarint(out, uint64(v.Len()))
		for it := v.MapRange(); it.Next(); {
			out = emit(it.Value(), emit(it.Key(), out))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				out = emit(v.Field(i), out)
			}
		}
	}
	return out
}

// waitingAnnouncer answers a server's forwards as an announcer still
// waiting for the other server does.
type waitingAnnouncer struct{}

func (waitingAnnouncer) Call(_ context.Context, _ string, req any) (any, error) {
	if _, ok := req.(protocol.AnnounceFetchRequest); ok {
		return protocol.AnnounceFetchReply{}, nil
	}
	return protocol.AnnounceReply{}, nil
}

func (a waitingAnnouncer) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	reply, err := a.Call(ctx, addr, req)
	return reply, func() {}, err
}

// FuzzServerRequest feeds Engine.Handle hostile requests: an input is up
// to fuzzRequests requests in a row, each a byte that picks a request
// type Handle dispatches and then what fills its exported fields (fill).
// Each input runs against a RAM engine and a disk engine, S0 of a 2-owner
// view, each holding one 16-cell table with verification and count
// columns and one pending delta, and one extreme round that owner 0 has
// opened, with an announcer to forward it to. Handle must never panic,
// and a request it refuses must leave held bytes, pending uploads,
// sessions and the delta backlog as they were. The corpus is seeded with
// one request of each type that the engines accept, with a PSIRequest
// for a table they do not hold, which they refuse, with one window of a
// verified count followed by its QueryDone, and with an aggregation whose
// second column the table lacks.
func FuzzServerRequest(f *testing.F) {
	const b = 16
	view := fullView(f, 0, 2, b)
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasVerify: true, HasCount: true}
	delta := protocol.StoreDeltaRequest{
		Owner: 0, Table: "t", Pos: []uint64{1, 5}, Chi: []uint16{3, 4}, Sums: map[string][]uint64{"v": {10, 11}},
		Cnt: []uint64{20, 21}, VPos: []uint64{2, 7}, ChiBar: []uint16{5, 6}, VSums: map[string][]uint64{"v": {12, 13}},
		VCnt: []uint64{22, 23},
	}
	seeds := []any{
		protocol.StoreRequest{Owner: 1, Spec: protocol.TableSpec{Name: "u", B: 2, AggCols: []string{"v"}, Plain: true},
			ChiAdd: []uint16{1, 0}, SumCols: map[string][]uint64{"v": {7, 8}}},
		delta,
		protocol.PSIRequest{Table: "t", QueryID: "q", Verify: true, Shard: protocol.Range{Offset: 8, Count: 8}},
		protocol.CountRequest{Table: "t", QueryID: "q", Verify: true},
		protocol.PSURequest{Table: "t", QueryID: "q", Permute: true},
		protocol.AggRequest{Table: "t", QueryID: "q", Cols: []string{"v"}, WithCount: true, Z: make([]uint64, b), VZ: make([]uint64, b)},
		protocol.ExtremeSubmitRequest{QueryID: "e", Owner: 1, VShares: [][]byte{{1}, {2}}},
		protocol.ExtremeFetchRequest{QueryID: "e"},
		protocol.ClaimSubmitRequest{QueryID: "e", Owner: 1, Shares: []uint16{1, 0}},
		protocol.ClaimFetchRequest{QueryID: "e"},
		protocol.ListTablesRequest{}, protocol.PingRequest{}, protocol.QueryDoneRequest{QueryID: "e"},
	}
	engine := func(t testing.TB, disk bool) *Engine {
		opts := Options{Threads: 1, AnnouncerAddr: "announcer", Caller: waitingAnnouncer{}}
		if disk {
			st, err := sharestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st.SetChunkCells(8)
			opts.Store = st
		}
		e := New(view, opts)
		storeSpec(t, []*Engine{e}, spec)
		for _, req := range []any{delta, protocol.ExtremeSubmitRequest{QueryID: "e", VShares: [][]byte{{1}, {2}}}} {
			if _, err := e.Handle(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	// input encodes reqs in a row, each behind its request-type byte.
	input := func(reqs ...any) []byte {
		var out []byte
		for _, req := range reqs {
			i := 0
			for reflect.TypeOf(requestTypes[i]) != reflect.TypeOf(req) {
				i++
			}
			out = emit(reflect.ValueOf(req), append(out, byte(i)))
		}
		return out
	}
	for _, req := range seeds {
		if _, err := engine(f, false).Handle(context.Background(), req); err != nil {
			f.Fatalf("seed %T refused: %v", req, err)
		}
		f.Add(input(req))
	}
	unknown := protocol.PSIRequest{Table: "nosuch", QueryID: "q"}
	if _, err := engine(f, false).Handle(context.Background(), unknown); err == nil {
		f.Fatal("a PSIRequest for an unknown table accepted")
	}
	f.Add(input(unknown))
	window := protocol.CountRequest{Table: "t", QueryID: "q", Verify: true, Shard: protocol.Range{Offset: 0, Count: 8}}
	f.Add(input(window, protocol.QueryDoneRequest{QueryID: "q"}))
	f.Add(input(protocol.AggRequest{Table: "t", Cols: []string{"v", "x"}, Z: make([]uint64, b)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []reflect.Value
		for len(data) > 0 && len(reqs) < fuzzRequests {
			req := reflect.New(reflect.TypeOf(requestTypes[int(data[0])%len(requestTypes)])).Elem()
			data = fill(req, data[1:])
			reqs = append(reqs, req)
		}
		for _, disk := range []bool{false, true} {
			e := engine(t, disk)
			state := func() string {
				return fmt.Sprintf("held=%d pending=%d sessions=%d backlog=%d", e.HeldBytes(), e.PendingUploads(), e.Sessions(), e.DeltaBacklog("t"))
			}
			for _, req := range reqs {
				before := state()
				if _, err := e.Handle(context.Background(), req.Interface()); err != nil {
					if after := state(); after != before {
						t.Errorf("disk=%v: refused %T changed server state (%v):\n before %s\n after  %s", disk, req.Interface(), err, before, after)
					}
				}
			}
		}
	})
}
