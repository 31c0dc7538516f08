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
// element per step, under frame version 4's type indexes; a change here
// is a wire change, which needs a new frame version.
var goldenDigests = map[string][]string{
	"PSUReply/w1": {
		"d5ebd9aa08ee0df28573385113321aa551bc037da6562c6de40c33fd3488e6fe",
		"2dd4d6675ce1a5ed437dca13225b6ebabc6d30e2407efd4b8161f3a4f540ab4f",
		"d268e0744fafeef4e1b2afadb295f6663faab5e88d85b46a96b2b912ab97a31a",
		"ecd06100546a0f56725ae1a84c4fbde9ac8571c7f20c1755ac097cbec458b900",
		"241af1c02d4ea4d104c2f242b14ee1180ea00945c3a88f5acc9b46c0519549db",
		"9ad775848bcbf1b5fc417cd4a2916f498e55d0032bd0302e127cee9a3f2d9f9b",
		"5e3ea8ef176a54142020fbc8adc33d5efa1c6894ddb4c55284c40377310a2ee7",
	},
	"AggReply/w8": {
		"839af13da98bdfdeab153ea6ec163b57d4638da39a7b3d7e8e5d76cc9960d5e2",
		"5698478603fd5d3980deb21a32d408b6759e4ca7db2fa56a67eae134bb3bc866",
		"d820ee7b0dbee9010e74630379e0683e3893f0c0e7f0922aff70ce9879783c84",
		"0f2d7c73b87410bb989f16bad36c271814a04935a99b23f86f970906701c3c6a",
		"eb1147111105ea5c221717731342d6e7eed02b1aed0631d7348b3f2b7fc61342",
		"a9505d6db54dcab81f6847cc0f4e19f5c7475c1ababa09862472cc3114bccb87",
		"1a7a162d74980aa87815484d667f328c29edc877a9a1b4bd52cba0c697f45733",
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
		"2753ae13ec2682649cd9282a38b7824462de5dcf9cdc74fcd8e3122d31420099",
		"3d18d7348516a039ba8edb2265e20fe90d5a03dec2d0d80a443e64e1337c807a",
		"3f3eb7d6d949e8a2dfc91ab230ddb5ef06dd8104615190217124a9d408d494b8",
		"37f7c30f480e010115982928721972af767193dbb0f4331c5c877616dbf5c3a8",
		"0a69addc5183d59c528cf99cc82b7cc1907a7b351dfd7d1b999638e52144353a",
		"933b4fe37a02baa579d541dc1e42a721a006884759100a1edb84ff04e22140fe",
		"e079745e3127283e7ae448c4bf887052797fc79237820d85d93eaa416176039d",
	},
	"PSIReply/w4": {
		"2753ae13ec2682649cd9282a38b7824462de5dcf9cdc74fcd8e3122d31420099",
		"dd7de90b203eaff58d93512d2b93e18879f3cc6f799c7b5bce05f07067c19514",
		"c34ebaa7dc26ceacdaf1bc02c9dc458e35f8202bb606ae4a8e556b6dbcff1c43",
		"a53da8a78dfe564158d58e027b15a7d6c9197b8cf5a1a46cc9587493a6d1038d",
		"8631ae50594dd8b8f7b638520085297ea4de8fffe67be4daafe6c9d55f83ca00",
		"5da997aaefcd17ca7241865d6f8d3144fc170aa24eeb92f8b9fb6146fd7d5b92",
		"0413a5ac9114d9f30166049c0254965359fdf8bf875dbce93f4287dc37eb0f04",
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
