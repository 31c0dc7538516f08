package ownerengine

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/transport"
)

// frameLog is a transport.Caller that encodes every request it passes
// on, so a test can pin the frames an owner sends byte for byte.
type frameLog struct {
	next   transport.Caller
	mu     sync.Mutex
	frames []sentFrame
}

type sentFrame struct {
	addr, label string
	offset      uint64
	body        []byte
}

func (l *frameLog) Call(ctx context.Context, addr string, req any) (any, error) {
	if err := l.log(addr, req); err != nil {
		return nil, err
	}
	return l.next.Call(ctx, addr, req)
}

func (l *frameLog) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	if err := l.log(addr, req); err != nil {
		return nil, func() {}, err
	}
	return l.next.CallBorrowed(ctx, addr, req)
}

func (l *frameLog) log(addr string, req any) error {
	var f sentFrame
	if laid, ok := req.(*protocol.Laid); ok {
		f = sentFrame{addr: addr, label: laid.Label, body: slices.Clone(laid.Payload())}
	} else {
		m, err := protocol.Measure(req)
		if err != nil {
			return err
		}
		f = sentFrame{addr: addr, label: m.Label, body: m.AppendTo(nil)}
	}
	if r, ok := req.(protocol.StoreRequest); ok {
		f.offset = r.Shard.Offset
	}
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
	return nil
}

// digest is one SHA-256 over every frame sent so far, sorted by server
// address, message type, window offset and body: windows go out
// concurrently, so the send order is not fixed.
func (l *frameLog) digest() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	slices.SortFunc(l.frames, func(a, b sentFrame) int {
		return cmp.Or(cmp.Compare(a.addr, b.addr), cmp.Compare(a.label, b.label),
			cmp.Compare(a.offset, b.offset), bytes.Compare(a.body, b.body))
	})
	h := sha256.New()
	for _, f := range l.frames {
		fmt.Fprintf(h, "%s %s %d %d\n", f.addr, f.label, f.offset, len(f.body))
		h.Write(f.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenOwner wires owner 0 of a seeded two-owner deployment over
// `groups` server triples through a frameLog, uploading in 8-cell
// windows, and loads it with tuples that alternate between the first
// and the last group.
func goldenOwner(t *testing.T, groups int) (*Owner, *frameLog) {
	t.Helper()
	o, _, log := goldenPair(t, groups)
	return o, log
}

// goldenPair is goldenOwner with the deployment's other owner, wired
// straight to the servers and loaded with its own tuples, so that both
// owners can outsource and owner 0 can query.
func goldenPair(t *testing.T, groups int) (*Owner, *Owner, *frameLog) {
	t.Helper()
	const b = 48
	multi, err := params.GenerateGroups(params.Config{
		NumOwners: 2, DomainSize: b, MaxAgg: 1000, Seed: prg.SeedFromString("golden-owner"),
	}, groups)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewNetwork()
	cfgs := make([]GroupConfig, groups)
	for g, gsys := range multi.Groups {
		for phi := 0; phi < params.NumServers; phi++ {
			view, err := gsys.ForServer(phi)
			if err != nil {
				t.Fatal(err)
			}
			n.Register(groupAddr(g, phi), serverengine.New(view, serverengine.Options{Threads: 1, Group: g}))
			cfgs[g].Servers = append(cfgs[g].Servers, groupAddr(g, phi))
		}
		cfgs[g].View = gsys.ForOwner()
	}
	log := &frameLog{next: n}
	o, err := New(0, cfgs, log, 8, prg.SeedFromString("golden-owner-seed"))
	if err != nil {
		t.Fatal(err)
	}
	d := &Data{
		Cells: []uint64{40, 3, 31, 3, 17, 46, 9, 24},
		Aggs: map[string][]uint64{
			"v": {5, 11, 700, 12, 9, 1000, 0, 33},
			"w": {1, 2, 3, 4, 5, 6, 7, 8},
		},
	}
	if err := o.Load(d); err != nil {
		t.Fatal(err)
	}
	peer, err := New(1, cfgs, n, 8, prg.SeedFromString("golden-peer-seed"))
	if err != nil {
		t.Fatal(err)
	}
	pd := &Data{
		Cells: []uint64{3, 40, 9, 9, 22, 46, 47, 17},
		Aggs: map[string][]uint64{
			"v": {8, 2, 600, 1, 4, 999, 5, 71},
			"w": {3, 3, 3, 3, 3, 3, 3, 3},
		},
	}
	if err := peer.Load(pd); err != nil {
		t.Fatal(err)
	}
	return o, peer, log
}

// goldenSteps outsources table "t" with every column kind and its bucket
// tree, then applies an add-only update and an update with removals.
func goldenSteps(t *testing.T, o *Owner) {
	t.Helper()
	ctx := context.Background()
	spec := OutsourceSpec{Table: "t", AggCols: []string{"v", "w"}, Verify: true, WithCount: true, Buckets: true}
	if _, err := o.Outsource(ctx, spec); err != nil {
		t.Fatal(err)
	}
	add := &Data{Cells: []uint64{44, 3, 10}, Aggs: map[string][]uint64{"v": {1, 2, 3}, "w": {9, 9, 9}}}
	if _, err := o.Update(ctx, "t", add, nil); err != nil {
		t.Fatal(err)
	}
	add = &Data{Cells: []uint64{0, 47}, Aggs: map[string][]uint64{"v": {6, 7}, "w": {0, 1}}}
	rm := &Data{Cells: []uint64{31, 3, 10}, Aggs: map[string][]uint64{"v": {700, 11, 3}, "w": {3, 2, 9}}}
	if _, err := o.Update(ctx, "t", add, rm); err != nil {
		t.Fatal(err)
	}
}

// goldenOwnerDigests are the frame digests of goldenSteps by group count.
// A change here changes what an owner sends its servers: the shares, the
// stream they are drawn from or the frames that carry them.
var goldenOwnerDigests = map[int]string{
	1: "63120d371930ae6cd5b479116ac2f19a089b8ff59a6a26baaaa033ee7c100bbe",
	2: "678c4059536088ec09e7989f725910ad0b3c5beffdc3839e9041a648905ac23e",
}

// TestGoldenOwnerFrames pins every frame a seeded owner sends across an
// outsource with verification columns, counts and a bucket tree, an
// add-only update and an update with removals, on one and two groups.
func TestGoldenOwnerFrames(t *testing.T) {
	for _, groups := range []int{1, 2} {
		o, log := goldenOwner(t, groups)
		goldenSteps(t, o)
		if got := log.digest(); got != goldenOwnerDigests[groups] {
			t.Errorf("%d groups: frames sha256 %s, want %s", groups, got, goldenOwnerDigests[groups])
		}
	}
}

// goldenQueryDigests are the frame digests of
// TestGoldenOwnerQueryFrames by group count: every request owner 0 sends for a verified PSI, count, PSU, sum
// and average over windows of 8 cells. A change here changes the
// queries' frames: their selector shares, the stream those are drawn
// from, or the layout that carries them.
var goldenQueryDigests = map[int]string{
	1: "ad0adab6f7375ba5c08521a16c3625e7a7c5526080c29f43d07b2d0db519d1a1",
	2: "e9dd4c16219d343869229dade913f79a57b8592d86162772fa35875360f6b1ee",
}

// TestGoldenOwnerQueryFrames pins every frame a seeded owner sends for
// one query of each non-extreme family, verified where the kind is, on
// one and two groups.
func TestGoldenOwnerQueryFrames(t *testing.T) {
	ctx := context.Background()
	spec := OutsourceSpec{Table: "t", AggCols: []string{"v", "w"}, Verify: true, WithCount: true}
	for _, groups := range []int{1, 2} {
		o, peer, log := goldenPair(t, groups)
		for _, owner := range []*Owner{o, peer} {
			if _, err := owner.Outsource(ctx, spec); err != nil {
				t.Fatal(err)
			}
		}
		log.mu.Lock()
		log.frames = nil
		log.mu.Unlock()
		for _, q := range []Query{
			{Kind: OpPSI, Table: "t", Verify: true},
			{Kind: OpPSICount, Table: "t", Verify: true},
			{Kind: OpPSU, Table: "t"},
			{Kind: OpPSISum, Table: "t", Cols: []string{"v"}, Verify: true},
			{Kind: OpPSIAvg, Table: "t", Cols: []string{"w"}, Verify: true},
		} {
			if _, err := o.Exec(ctx, q, nil); err != nil {
				t.Fatalf("%d groups: %s: %v", groups, q.Kind, err)
			}
		}
		if got := log.digest(); got != goldenQueryDigests[groups] {
			t.Errorf("%d groups: query frames sha256 %s, want %s", groups, got, goldenQueryDigests[groups])
		}
	}
}

// TestDataKeepsLoadedOrder: Data returns the tuples in the order they
// were loaded, with each update's fold applied — removals taken out in
// place and adds appended — whichever groups the tuples' cells fall in.
func TestDataKeepsLoadedOrder(t *testing.T) {
	for _, groups := range []int{1, 2} {
		o, _ := goldenOwner(t, groups)
		goldenSteps(t, o)
		want := &Data{
			Cells: []uint64{40, 3, 17, 46, 9, 24, 44, 3, 0, 47},
			Aggs: map[string][]uint64{
				"v": {5, 12, 9, 1000, 0, 33, 1, 2, 6, 7},
				"w": {1, 4, 5, 6, 7, 8, 9, 9, 0, 1},
			},
		}
		if got := o.Data(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d groups: Data() = %v, want %v", groups, got, want)
		}
	}
}
