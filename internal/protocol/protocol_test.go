package protocol

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestStatsAdd(t *testing.T) {
	a := Stats{FetchNS: 10, ComputeNS: 20, Cells: 5}
	a.Add(Stats{FetchNS: 1, ComputeNS: 2, Cells: 3})
	if a.FetchNS != 11 || a.ComputeNS != 22 || a.Cells != 8 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func TestExtremeKindString(t *testing.T) {
	cases := map[ExtremeKind]string{
		KindMax:         "max",
		KindMin:         "min",
		KindMedian:      "median",
		ExtremeKind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q want %q", k, k.String(), want)
		}
	}
}

// TestEveryMessageGobRoundTrips feeds a populated instance of every
// message type through the envelope used by both transports.
func TestEveryMessageGobRoundTrips(t *testing.T) {
	type env struct{ P any }
	gob.Register(env{})
	msgs := []any{
		TableSpec{Name: "t", B: 9, AggCols: []string{"a"}, HasVerify: true, HasCount: true, Plain: true},
		StoreRequest{Owner: 2, Spec: TableSpec{Name: "x", B: 1},
			ChiAdd: []uint16{1}, ChiBarAdd: []uint16{0},
			SumCols:  map[string][]uint64{"c": {4}},
			VSumCols: map[string][]uint64{"c": {5}},
			CountCol: []uint64{6}, VCountCol: []uint64{7}},
		StoreReply{Cells: 3},
		DropRequest{Table: "t"}, DropReply{},
		PSIRequest{Table: "t", QueryID: "q", Cells: []uint32{3}},
		PSIRequest{Table: "t", QueryID: "q", Shard: Range{Offset: 2, Count: 2}, Verify: true},
		PSIReply{Out: []uint32{1, 2}, Stats: Stats{Cells: 2, FetchNS: 1}},
		PSIReply{Out: []uint32{1, 2}, Vout: []uint32{9, 8}},
		CountRequest{Table: "t", Verify: true},
		CountReply{Out: []uint32{1}, Vout: []uint32{2}},
		PSURequest{Table: "t", QueryID: "n", Permute: true},
		PSUReply{Out: []uint16{4}},
		AggRequest{Table: "t", Cols: []string{"a"}, WithCount: true,
			Z: []uint64{1}, VZ: []uint64{2}},
		AggReply{Sums: map[string][]uint64{"a": {7}}, Counts: []uint64{1},
			VSums: map[string][]uint64{"a": {7}}, VCounts: []uint64{1}},
		ExtremeSubmitRequest{QueryID: "q", Kind: KindMedian, Owner: 1, VShares: [][]byte{{1, 2}, {3}}},
		ExtremeSubmitReply{Forwarded: true},
		ExtremeFetchRequest{QueryID: "q"},
		ExtremeFetchReply{Ready: true, ValueShares: [][]byte{{3}, {4}}, IndexShares: []uint16{7, 8}},
		AnnounceRequest{QueryID: "q", Kind: KindMax, ServerIdx: 1, Slots: [][][]byte{{{1}, {2}}, {{3}, {4}}}},
		AnnounceReply{Have: 2},
		AnnounceFetchRequest{QueryID: "q", ServerIdx: 0},
		AnnounceFetchReply{Ready: true, ValueShares: [][]byte{{9}}, IndexShares: []uint16{2}},
		ClaimSubmitRequest{QueryID: "q", Owner: 0, Shares: []uint16{5, 6}},
		ClaimSubmitReply{},
		ClaimFetchRequest{QueryID: "q"},
		ClaimFetchReply{Ready: true, Fpos: []uint16{0, 1}},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&env{P: m}); err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		var out env
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
	}
}
