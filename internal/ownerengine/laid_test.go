package ownerengine

import (
	"context"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/sharestore"
	"prism/internal/transport"
)

// laidRig is two owners over one in-process server triple whose every
// message is a frame (EncodeWire), as in the library: the owners share
// the cells 1024k for every k, where owner i holds 100+i, and table "t" is
// outsourced with its verification columns. δ = 0 takes the paper's.
func laidRig(tb testing.TB, b, delta uint64) *Owner {
	tb.Helper()
	sys, err := params.Generate(params.Config{NumOwners: 2, DomainSize: b, MaxAgg: 1 << 20, Delta: delta, Seed: prg.SeedFromString("laid-rig")})
	if err != nil {
		tb.Fatal(err)
	}
	n := transport.NewNetwork()
	n.EncodeWire = true
	cfg := GroupConfig{View: sys.ForOwner()}
	for phi := 0; phi < params.NumServers; phi++ {
		view, err := sys.ForServer(phi)
		if err != nil {
			tb.Fatal(err)
		}
		n.Register(groupAddr(0, phi), serverengine.New(view, serverengine.Options{Threads: 1}))
		cfg.Servers = append(cfg.Servers, groupAddr(0, phi))
	}
	var owners []*Owner
	for i := 0; i < 2; i++ {
		o, err := New(i, []GroupConfig{cfg}, n, 0, prg.SeedFromString("laid-owner"))
		if err != nil {
			tb.Fatal(err)
		}
		d := &Data{Aggs: map[string][]uint64{"v": nil}}
		for c := uint64(0); c < b; c += 1024 {
			d.Cells, d.Aggs["v"] = append(d.Cells, c), append(d.Aggs["v"], uint64(100+i))
		}
		if err := o.Load(d); err != nil {
			tb.Fatal(err)
		}
		if _, err := o.Outsource(context.Background(), OutsourceSpec{Table: "t", AggCols: []string{"v"}, Verify: true}); err != nil {
			tb.Fatal(err)
		}
		owners = append(owners, o)
	}
	return owners[0]
}

// perQuery is the heap bytes one run of q allocates in the process —
// owner and servers — with the collector off, so pooled frames stay
// pooled: the least of five readings over eight runs each, since an
// allocation anything else makes meanwhile can only add to a reading.
func perQuery(tb testing.TB, q func()) uint64 {
	tb.Helper()
	q() // warm-up: owner sums, inverse permutations, frame pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 8 {
			q()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/8)
	}
	return least
}

// TestQueryRoundsAllocateNoVectors: at b = 2^16, where the smallest
// b-cell vector (2-byte cells) is 128 KiB, a verified PSI round allocates
// less than that anywhere — every reply vector is written into its frame
// and read from it, and η′ is past 2^16 here, so PSI cells are
// full-width and borrowed — and a verified sum allocates less than that
// past Aggregate's two accumulators: the selector shares are written into
// the request frames, the servers' products into the reply frames.
func TestQueryRoundsAllocateNoVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skipf("%s decodes every vector by copy", runtime.GOARCH)
	}
	const b = 1 << 16
	o := laidRig(t, b, 65521)
	ctx := context.Background()
	vec := uint64(2 * b)
	for _, tc := range []struct {
		q     Query
		bound uint64
	}{
		{Query{Kind: OpPSI, Table: "t", Verify: true}, vec},
		{Query{Kind: OpPSISum, Table: "t", Cols: []string{"v"}, Verify: true}, 2*8*b + vec},
	} {
		got := perQuery(t, func() {
			res, err := o.Exec(ctx, tc.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Cells) != b/1024 {
				t.Fatalf("%s: %d cells, want %d", tc.q.Kind, len(res.Cells), b/1024)
			}
		})
		if got >= tc.bound {
			t.Errorf("%s: %d bytes per query, want under %d", tc.q.Kind, got, tc.bound)
		} else {
			t.Logf("%s: %d bytes per query (bound %d)", tc.q.Kind, got, tc.bound)
		}
	}
}

// BenchmarkAggRound times one verified aggregation round at b = 2^18
// over a 256-cell intersection: the owner's selector split into the
// request frames, the three servers' kernels into the reply frames, and
// the interpolation, every message a frame.
func BenchmarkAggRound(b *testing.B) {
	const n = 1 << 18
	o := laidRig(b, n, 0)
	selected := make([]uint64, 0, n/1024)
	for c := uint64(0); c < n; c += 1024 {
		selected = append(selected, c)
	}
	ctx := context.Background()
	b.ResetTimer()
	for range b.N {
		if _, err := o.groups[0].Aggregate(ctx, "t", selected, []string{"v"}, false, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
}

// framedRig is two owners of table "t" (columns v and w, verification
// columns, counts) over one server triple, reached over a Network that
// frames every message or over TCP, the servers on disk or in memory,
// in windows of shard cells. wrap stands in front of each server.
type framedRig struct {
	owner *Owner
	dirs  []string // each server's store, on disk
	eng   []*serverengine.Engine
}

// serve is what stands in front of server phi: the engine itself, or a
// handler over it.
type serve func(phi int, eng *serverengine.Engine) transport.Handler

func newFramedRig(t *testing.T, tcp, disk bool, b, shard uint64, wrap serve) *framedRig {
	t.Helper()
	sys, err := params.Generate(params.Config{NumOwners: 2, DomainSize: b, MaxAgg: 1000, Seed: prg.SeedFromString("framed-rig")})
	if err != nil {
		t.Fatal(err)
	}
	r := &framedRig{}
	cfg := GroupConfig{View: sys.ForOwner()}
	n := transport.NewNetwork()
	n.EncodeWire = true
	book := map[string]string{}
	for phi := 0; phi < params.NumServers; phi++ {
		view, err := sys.ForServer(phi)
		if err != nil {
			t.Fatal(err)
		}
		opts := serverengine.Options{Threads: 2}
		if disk {
			dir := t.TempDir()
			if opts.Store, err = sharestore.Open(dir); err != nil {
				t.Fatal(err)
			}
			r.dirs = append(r.dirs, dir)
		}
		eng := serverengine.New(view, opts)
		r.eng = append(r.eng, eng)
		var h transport.Handler = eng
		if wrap != nil {
			h = wrap(phi, eng)
		}
		addr := groupAddr(0, phi)
		cfg.Servers = append(cfg.Servers, addr)
		if !tcp {
			n.Register(addr, h)
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go transport.Serve(ctx, ln, h)
		book[addr] = ln.Addr().String()
	}
	var caller transport.Caller = n
	if tcp {
		c := transport.NewTCPClient(book)
		t.Cleanup(func() { c.Close() })
		caller = c
	}
	for i := 0; i < 2; i++ {
		o, err := New(i, []GroupConfig{cfg}, caller, shard, prg.SeedFromString("framed-owner"))
		if err != nil {
			t.Fatal(err)
		}
		d := &Data{Cells: []uint64{1, 7, 9, b - 1}, Aggs: map[string][]uint64{"v": {1, 2, 3, 4}, "w": {5, 6, 7, 8}}}
		if err := o.Load(d); err != nil {
			t.Fatal(err)
		}
		spec := OutsourceSpec{Table: "t", AggCols: []string{"v", "w"}, Verify: true, WithCount: true}
		if _, err := o.Outsource(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			r.owner = o
		}
	}
	return r
}

// settled waits until every frame the transport holds — read, decoded
// or laid — is back, failing t after 5 s: a TCP server may still be
// writing a reply nobody waits for.
func settled(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); transport.HeldFrames() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames still held", transport.HeldFrames())
		}
	}
}

// failAgg answers window 0's aggregation requests to server 2 with an
// error and serves everything else laid.
func failAgg(phi int, eng *serverengine.Engine) transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if r, ok := req.(protocol.AggRequest); ok && phi == 2 && r.Shard.Offset == 0 {
			return nil, errors.New("window 0 refused")
		}
		return eng.HandleLaid(ctx, req)
	})
}

// TestLaidFramesReleasedOnEveryPath: with released frames poisoned, on a
// Network that frames every message and over TCP, every frame comes back
// (HeldFrames 0) after a handler fails past laying its reply, after a
// reply over the frame cap is refused — with ErrFrameTooLarge, before
// the servers fetch anything — after a sibling window fails and the
// owner drops its unsent laid requests, and after the owner's context
// is cancelled mid-round.
func TestLaidFramesReleasedOnEveryPath(t *testing.T) {
	defer transport.PoisonReleasedFrames()()
	const b = 4096
	ctx := context.Background()
	all := []uint64{1, 7, 9, b - 1}
	for _, tcp := range []bool{false, true} {
		name := map[bool]string{false: "network", true: "tcp"}[tcp]
		t.Run(name+"/handler fails after laying", func(t *testing.T) {
			settled(t)
			r := newFramedRig(t, tcp, true, b, 1024, nil)
			for _, dir := range r.dirs { // the second column pair's owner columns
				cols, err := filepath.Glob(filepath.Join(dir, "*", "o*.sum.w.colv2"))
				if err != nil || len(cols) != 2 {
					t.Fatalf("w columns %v: %v", cols, err)
				}
				for _, col := range cols {
					if err := os.RemoveAll(col); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := r.owner.groups[0].Aggregate(ctx, "t", all, []string{"v", "w"}, true, true); err == nil {
				t.Fatal("an aggregation over a lost column answered")
			}
			settled(t)
		})
		t.Run(name+"/reply over the frame cap", func(t *testing.T) {
			settled(t)
			r := newFramedRig(t, tcp, false, b, 1024, nil)
			held := r.eng[0].HeldBytes()
			defer transport.SetFrameLimit(1024)()
			_, err := r.owner.Exec(ctx, Query{Kind: OpPSI, Table: "t", Verify: true}, nil)
			if err == nil || !strings.Contains(err.Error(), transport.ErrFrameTooLarge.Error()) || !tcp && !errors.Is(err, transport.ErrFrameTooLarge) {
				t.Fatalf("err = %v, want ErrFrameTooLarge", err)
			}
			if got := r.eng[0].HeldBytes(); got != held {
				t.Fatalf("server 0 holds %d bytes after the refusal, %d before: it fetched", got, held)
			}
			settled(t)
		})
		t.Run(name+"/sibling window fails", func(t *testing.T) {
			settled(t)
			r := newFramedRig(t, tcp, false, b, 64, failAgg) // 64 windows, 8 in flight
			_, err := r.owner.groups[0].Aggregate(ctx, "t", all, []string{"v"}, false, true)
			if err == nil || !strings.Contains(err.Error(), "window 0 refused") {
				t.Fatalf("err = %v, want window 0's refusal", err)
			}
			settled(t)
		})
		t.Run(name+"/context cancelled", func(t *testing.T) {
			settled(t)
			arrived, done := make(chan struct{}), make(chan struct{})
			var once sync.Once
			r := newFramedRig(t, tcp, false, b, 256, func(phi int, eng *serverengine.Engine) transport.Handler {
				return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
					if _, ok := req.(protocol.AggRequest); ok {
						once.Do(func() { close(arrived) })
						select {
						case <-ctx.Done(): // the owner's own context, in process
							return nil, ctx.Err()
						case <-done:
							return nil, errors.New("held until the owner gave up")
						}
					}
					return eng.HandleLaid(ctx, req)
				})
			})
			cctx, cancel := context.WithCancel(ctx)
			go func() {
				<-arrived
				cancel()
			}()
			_, err := r.owner.groups[0].Aggregate(cctx, "t", all, []string{"v"}, true, true)
			close(done)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			settled(t)
		})
	}
}
