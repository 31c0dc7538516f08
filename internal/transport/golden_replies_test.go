package transport_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/share"
	"prism/internal/sharestore"
	"prism/internal/transport"
)

// goldenReplies pins, per frame version, the SHA-256 of every server
// reply to goldenRequests over the golden table, Stats stripped. The
// frame version names what servers compute as well as the layout: a
// change to a reply's cells for the same request fails this test until
// the version and its digest change together, so a group whose servers
// run two builds is refused with ErrFrameVersion instead of answering
// wrong.
var goldenReplies = map[int]string{
	4: "e02e7c060a0868b3ccaac61ac81426107d35a0dd1ab5388d09e2ef2f4d8c0114",
}

const (
	goldenOwners = 3
	goldenCells  = 96 // 16-cell chunks on disk
	goldenChunk  = 16
)

var goldenSpec = protocol.TableSpec{Name: "t", B: goldenCells, AggCols: []string{"v"}, HasVerify: true, HasCount: true}

// goldenEngines outsources the golden table — three owners, fixed cells
// and shares — to S0, S1 and S2 built by opts.
func goldenEngines(t *testing.T, opts func() serverengine.Options) []*serverengine.Engine {
	t.Helper()
	sys, err := params.Generate(params.Config{NumOwners: goldenOwners, DomainSize: goldenCells, MaxAgg: 1000, Seed: prg.SeedFromString("golden-replies")})
	if err != nil {
		t.Fatal(err)
	}
	var engines []*serverengine.Engine
	for phi := 0; phi < 3; phi++ {
		v, err := sys.ForServer(phi)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, serverengine.New(v, opts()))
	}
	g := prg.New(prg.SeedFromString("golden-data"))
	for owner := 0; owner < goldenOwners; owner++ {
		chi, bar := make([]uint16, goldenCells), make([]uint16, goldenCells)
		sums, cnts := make([]uint64, goldenCells), make([]uint64, goldenCells)
		for i := range chi {
			if i%8 == 0 || g.Uint64n(2) == 1 { // every eighth cell is common
				chi[i], sums[i], cnts[i] = 1, 1+g.Uint64n(100), 1+g.Uint64n(3)
			}
			bar[i] = 1 - chi[i]
		}
		chiS := share.AdditiveSplitVector(g, chi, sys.Delta, 2)
		barS := share.AdditiveSplitVector(g, bar, sys.Delta, 2)
		sumS, cntS := share.ShamirSplitVector(g, sums, 1, 3), share.ShamirSplitVector(g, cnts, 1, 3)
		for phi, e := range engines {
			req := protocol.StoreRequest{
				Owner: owner, Spec: goldenSpec,
				SumCols: map[string][]uint64{"v": sumS[phi]}, VSumCols: map[string][]uint64{"v": sumS[phi]},
				CountCol: cntS[phi], VCountCol: cntS[phi],
			}
			if phi < 2 {
				req.ChiAdd, req.ChiBarAdd = chiS[phi], barS[phi]
			}
			if _, err := e.Handle(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	return engines
}

// goldenRequests is the request set, each kind whole-table and in a
// window that straddles chunks: PSI with and without its proof, count
// with and without, a permuted PSU under a fixed query id, and
// aggregation plain and with its proof and counts. Set kinds go to S0
// and S1, aggregation to all three servers.
func goldenRequests() []any {
	var out []any
	for _, rg := range []protocol.Range{{}, {Offset: 40, Count: 40}} {
		n := goldenCells
		if rg.Sharded() {
			n = int(rg.Count)
		}
		z := make([]uint64, n)
		for i := range z {
			z[i] = uint64(i%3) * 0x9E3779B97F4A7C15 % 1_000_003
		}
		out = append(out,
			protocol.PSIRequest{Table: "t", Shard: rg},
			protocol.PSIRequest{Table: "t", Verify: true, Shard: rg},
			protocol.CountRequest{Table: "t", QueryID: "golden", Shard: rg},
			protocol.CountRequest{Table: "t", QueryID: "golden", Verify: true, Shard: rg},
			protocol.PSURequest{Table: "t", QueryID: "golden", Permute: true, Shard: rg},
			protocol.AggRequest{Table: "t", Cols: []string{"v"}, Z: z, Shard: rg},
			protocol.AggRequest{Table: "t", Cols: []string{"v"}, WithCount: true, Z: z, VZ: z, Shard: rg},
		)
	}
	return out
}

// goldenDigest is the SHA-256 of every reply to goldenRequests, each
// with its Stats zeroed and encoded by the wire codec, in request and
// server order.
func goldenDigest(t *testing.T, engines []*serverengine.Engine) string {
	t.Helper()
	h := sha256.New()
	for _, req := range goldenRequests() {
		servers := engines[:2]
		if _, agg := req.(protocol.AggRequest); agg {
			servers = engines
		}
		for phi, e := range servers {
			rep, err := e.Handle(context.Background(), req)
			if err != nil {
				t.Fatalf("server %d %T: %v", phi, req, err)
			}
			v := reflect.New(reflect.TypeOf(rep)).Elem()
			v.Set(reflect.ValueOf(rep))
			v.FieldByName("Stats").SetZero()
			m, err := protocol.Measure(v.Interface())
			if err != nil {
				t.Fatal(err)
			}
			h.Write(m.AppendTo(nil))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenReplies holds the replies of servers in memory and on disk,
// with the epoch's cache cold and warm, to the digest pinned for this
// build's frame version (goldenReplies).
func TestGoldenReplies(t *testing.T) {
	want, ok := goldenReplies[transport.FrameVersion]
	if !ok {
		t.Fatalf("frame version %d pins no reply digest", transport.FrameVersion)
	}
	disk := func() serverengine.Options {
		st, err := sharestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.SetChunkCells(goldenChunk)
		return serverengine.Options{Threads: 2, Store: st}
	}
	for _, tier := range []struct {
		name string
		opts func() serverengine.Options
		warm bool
	}{
		{"ram", func() serverengine.Options { return serverengine.Options{Threads: 2} }, false},
		{"disk-cold", disk, false},
		{"disk-warm", disk, true},
	} {
		engines := goldenEngines(t, tier.opts)
		if tier.warm {
			goldenDigest(t, engines)
		}
		if got := goldenDigest(t, engines); got != want {
			t.Errorf("%s: replies hash to %s, want %s (frame version %d)", tier.name, got, want, transport.FrameVersion)
		}
	}
}
