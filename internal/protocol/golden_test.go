package protocol_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"prism/internal/protocol"
)

// goldenVec returns n elements that need exactly width bytes: a
// multiplicative hash shifted down to 8·width bits, with the top bit of
// that width set on the last element. An empty vector is nil, as the
// decoder returns it.
func goldenVec(n, width, seed int) []uint64 {
	if n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = (uint64(seed*7919+i+1) * 0x9E3779B97F4A7C15) >> (64 - 8*width)
	}
	if n > 0 {
		v[n-1] |= 1 << (8*width - 1)
	}
	return v
}

func narrow[T uint16 | uint32](v []uint64) []T {
	if v == nil {
		return nil
	}
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}

// goldenFrames builds the pinned messages at vector length n: PSI
// replies at widths 2 and 4, a PSU reply at width 1, an aggregation
// reply at width 8 with a count vector at width 1, and a store request
// with a vector at every width.
func goldenFrames(n int) map[string]any {
	stats := protocol.Stats{FetchNS: 11, ComputeNS: 12, Cells: n, Spans: []protocol.Span{{Name: "server:compute", Site: "g0/s1", DurNS: 13}}}
	return map[string]any{
		"PSIReply/w2": protocol.PSIReply{Out: narrow[uint32](goldenVec(n, 2, 1)), Vout: narrow[uint32](goldenVec(n, 2, 2)), Stats: stats},
		"PSIReply/w4": protocol.PSIReply{Out: narrow[uint32](goldenVec(n, 4, 3)), Vout: narrow[uint32](goldenVec(n, 4, 4)), Stats: stats},
		"PSUReply/w1": protocol.PSUReply{Out: narrow[uint16](goldenVec(n, 1, 5)), Stats: stats},
		"AggReply/w8": protocol.AggReply{
			Sums:   map[string][]uint64{"DT": goldenVec(n, 8, 6), "PK": goldenVec(n, 8, 7)},
			Counts: goldenVec(n, 1, 8), VSums: map[string][]uint64{"DT": goldenVec(n, 8, 9)},
			VCounts: goldenVec(n, 1, 10), Stats: stats},
		"StoreRequest": protocol.StoreRequest{Owner: 2, Group: 1,
			Spec:  protocol.TableSpec{Name: "main", B: uint64(n), AggCols: []string{"DT", "PK"}, HasVerify: true, HasCount: true},
			Shard: protocol.Range{Offset: 0, Count: uint64(n)}, UploadID: "7/3",
			ChiAdd: narrow[uint16](goldenVec(n, 2, 11)), ChiBarAdd: narrow[uint16](goldenVec(n, 1, 12)),
			SumCols:  map[string][]uint64{"DT": goldenVec(n, 8, 13), "PK": goldenVec(n, 4, 14)},
			VSumCols: map[string][]uint64{"DT": goldenVec(n, 8, 15), "PK": goldenVec(n, 2, 16)},
			CountCol: goldenVec(n, 1, 17), VCountCol: goldenVec(n, 1, 18)},
	}
}

// goldenDigests is the SHA-256 of each goldenFrames message's
// encoding at goldenLengths, computed from the codec that packed one
// element per step; a change here is a wire change, which needs a new
// frame version.
var goldenDigests = map[string][]string{
	"PSUReply/w1": {
		"42ea1e53159fe59f896ab67939cb76f8d27798fd91b154e26a12b66978caa3e3",
		"8594fd6b071847bfa1a60cf166c6d189e43a6f473e8ca18111cde1dcc967412d",
		"f2983f41f58985ec9b1e6cd6ea34e29824c4cd0cb94157eeb0bfe71b02f3adaf",
		"52f0b2966b00d06714c9e3d12a4c9e7c724890828654caa53ec77c4ef00641c6",
		"3b5703ede3599b6e83776d70574792d513575833553fa76de8ca01e13171d8d2",
		"b8b998889f015b65408f16482b00a169896c63613b5fae1536069c50d4ab52c8",
		"6e93a96bdd41ccd15256da4f8fa136b8ca64864fb6ffd2a7722073350ec44ce2",
	},
	"AggReply/w8": {
		"57d8540734d4298d474435d555569b3d2468969fd761690558ae7ec0d3397a8c",
		"f7ac0af5802f06a76393cfb8bd1b8245beafaf055dd87647053430a6d83bf757",
		"2a3b1b846ebd26c8c429203dfb20c85fd0d7dadf4d3da00d784d30748fb14571",
		"d7e0ddcb98e3fbf038ff54d139de578c12c833e7bb65ae8970d7ce5c6e9c3396",
		"09a6cda476f2aec5344feaed30414db3795f4a126884477925ba09b988ec64b5",
		"9a99e5f573163798cb485bbc1e0be70d47675c31bdcccbaa8980b93687132c08",
		"5ada30fb218be48ac95189e33c8e5cdc2b90622cfbc51581f9178eadeba49a06",
	},
	"StoreRequest": {
		"4322f986586dbe68cb31efcc729be00b68ac93abf401b70d0587318dcb3ea34f",
		"5690a841c5fcf00b533d0c0cda206faa445a750fe64c1bdee5d8895083e2ab73",
		"e86e5d2271b82b33dd9c4a2e088a5d6ac6fd3f405f1c17bb9cd81806053afa6c",
		"ce2c212240157e9cbf7d4f0a1a25f8c35cf883dc5291d57d002cce4c2d698cd7",
		"d6752981a0c770ed54b6d30556cfb5c4fb9ebef5d46e5bbe8675c45a28d885b4",
		"b467a07295bc567c59de4f1bb68d53923c240ffe29e6bdeb1171c825b60a4d61",
		"230b46e2502ee0f355cb5e70392aeeba509d14e63ec232264715b58b91ca89cc",
	},
	"PSIReply/w2": {
		"7b277c103ee81e80b13dd92e051f0ddaec33f63724d1d33f9a028a96dd496842",
		"26402be71a50cb490535eacfc117508a627b329b04daa04405d21c3e5506b471",
		"2fe585c3c110d3419eac5979ec1565b1de5eca186bb245563fc14a62ea6b87fa",
		"124c851fd90f0ee95298ef7cdf0be810aee746d1cbaa896e44e10262e1bca710",
		"b28597b4ad82e78650dea9de12bba1ac5bf687e4d1bb1cf9a1ea128a7a6e0c83",
		"1a23719c8b5b30bed8e82bde31d9f6a3a5ff42ef220402cd5189805aa06e0c8a",
		"502bac72784b1f4c4d73962bb0e3c4c54a0ed9a25642f09d6d31426b44040261",
	},
	"PSIReply/w4": {
		"7b277c103ee81e80b13dd92e051f0ddaec33f63724d1d33f9a028a96dd496842",
		"0c6fde2a2aa7b96b0d081da767301909c594635614153b22853034242e5e5e27",
		"29d296a2f1082fab24443f0df0414bdaffd6ae4c5290d8f0a364dae442487ceb",
		"33cea0b79c92442d490d0c6e7162164f5ced3ce5bc086611fdfbcfbe6eea3431",
		"f3650a4662f7b1fe2d55bd46f9cce152fbc32e9315f7a9f63b90435531a1473b",
		"ba2e66b09bb43717d274f55fe76131b88df00bb616a3584a5e8a3e616808b1ed",
		"40c7b6d4c10494b7b687d9c09023754af016e1bfad800c232e8c8d1676efa91a",
	},
}

var goldenLengths = []int{0, 1, 3, 255, 256, 257, 1027}

// TestGoldenFrames pins the wire format byte for byte at vector lengths
// on both sides of the packer's word and block boundaries, and decodes
// each pinned encoding back to the message it came from.
func TestGoldenFrames(t *testing.T) {
	for i, n := range goldenLengths {
		for name, msg := range goldenFrames(n) {
			b := encode(t, msg)
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != goldenDigests[name][i] {
				t.Errorf("%s, %d cells: sha256 %s, want %s", name, n, got, goldenDigests[name][i])
			}
			if out, err := protocol.DecodeMessage(b); err != nil || !reflect.DeepEqual(out, msg) {
				t.Errorf("%s, %d cells: decoded %v, %v; want the message", name, n, out, err)
			}
		}
	}
}
