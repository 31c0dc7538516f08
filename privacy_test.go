package prism

import (
	"context"
	"sync"
	"testing"

	"prism/internal/modmath"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// capture records requests/replies flowing through a server address.
type capture struct {
	mu     sync.Mutex
	stores []protocol.StoreRequest
	counts []protocol.CountReply
	psis   []protocol.PSIReply
	inner  transport.Handler
}

func (c *capture) Handle(ctx context.Context, req any) (any, error) {
	if s, ok := req.(protocol.StoreRequest); ok {
		c.mu.Lock()
		c.stores = append(c.stores, s)
		c.mu.Unlock()
	}
	reply, err := c.inner.Handle(ctx, req)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	switch r := reply.(type) {
	case protocol.CountReply:
		c.counts = append(c.counts, r)
	case protocol.PSIReply:
		c.psis = append(c.psis, r)
	}
	c.mu.Unlock()
	return reply, nil
}

func captureServer(sys *System, phi int) *capture {
	c := &capture{}
	sys.interceptGroupServer(0, phi, func(h transport.Handler) transport.Handler {
		c.inner = h
		return c
	})
	return c
}

// TestServerSeesOnlyShares: the χ share uploaded to one server must not
// reveal the owner's bitmap — every residue of Z_δ should appear, not
// just {0, 1}, and the share must differ from the plain bitmap.
func TestServerSeesOnlyShares(t *testing.T) {
	dom, _ := IntDomain(1, 2000)
	sys, err := NewLocalSystem(Config{Owners: 2, Domain: dom, Seed: [32]byte{21}})
	if err != nil {
		t.Fatal(err)
	}
	cap0 := captureServer(sys, 0)
	defer sys.restoreGroupServer(0, 0)

	rows := make([]Row, 0, 1000)
	for k := uint64(1); k <= 1000; k++ {
		rows = append(rows, Row{IntKey: k}) // dense first half: plain χ = 1s then 0s
	}
	if err := sys.Owner(0).Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := sys.Owner(1).Load(rows[:10]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(cap0.stores) == 0 {
		t.Fatal("no store captured")
	}
	share := cap0.stores[0].ChiAdd
	// (1) Share values spread over Z_113, not only {0,1}.
	distinct := map[uint16]bool{}
	for _, v := range share {
		distinct[v] = true
	}
	if len(distinct) < 50 {
		t.Errorf("share uses only %d residues of Z_113 — not masking the bitmap", len(distinct))
	}
	// (2) The share does not follow the all-ones/all-zeros structure.
	onesFirstHalf, onesSecondHalf := 0, 0
	for i, v := range share {
		if v == 1 {
			if i < 1000 {
				onesFirstHalf++
			} else {
				onesSecondHalf++
			}
		}
	}
	// Under uniform sharing, ~1/113 of each half is literal 1.
	if onesFirstHalf > 200 {
		t.Errorf("share leaks the dense half: %d literal ones", onesFirstHalf)
	}
}

// TestPSIReplyLengthHidesOutputSize: the reply vector is always b cells
// regardless of how many values are common (§3.4 output-size hiding).
func TestPSIReplyLengthHidesOutputSize(t *testing.T) {
	for _, overlap := range []int{0, 5, 32} {
		dom, _ := IntDomain(1, 32)
		sys, err := NewLocalSystem(Config{Owners: 2, Domain: dom, Seed: [32]byte{byte(22 + overlap)}})
		if err != nil {
			t.Fatal(err)
		}
		cap0 := captureServer(sys, 0)
		rows0 := make([]Row, 32)
		rows1 := make([]Row, 32)
		for i := 0; i < 32; i++ {
			rows0[i] = Row{IntKey: uint64(i + 1)}
			if i < overlap {
				rows1[i] = rows0[i]
			} else {
				rows1[i] = Row{IntKey: uint64((i+7)%32 + 1)}
			}
		}
		sys.Owner(0).Load(rows0)
		sys.Owner(1).Load(rows1)
		if _, err := sys.OutsourceAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.PSI(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, r := range cap0.psis {
			if len(r.Out) != 32 {
				t.Fatalf("overlap %d: reply has %d cells, want the full 32", overlap, len(r.Out))
			}
		}
		sys.restoreGroupServer(0, 0)
	}
}

// TestCountReplyPositionsHidden: the count reply is PF_s1-permuted, so
// the positions of "common" markers must not coincide with the natural
// intersection cells (§6.5).
func TestCountReplyPositionsHidden(t *testing.T) {
	dom, _ := IntDomain(1, 512)
	sys, err := NewLocalSystem(Config{Owners: 2, Domain: dom, Seed: [32]byte{23}})
	if err != nil {
		t.Fatal(err)
	}
	cap0 := captureServer(sys, 0)
	cap1 := captureServer(sys, 1)
	defer sys.restoreGroupServer(0, 0)
	defer sys.restoreGroupServer(0, 1)

	// Intersection = keys 1..16 (cells 0..15).
	var rows []Row
	for k := uint64(1); k <= 16; k++ {
		rows = append(rows, Row{IntKey: k})
	}
	sys.Owner(0).Load(append(rows, Row{IntKey: 100}))
	sys.Owner(1).Load(append(rows, Row{IntKey: 200}))
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSICount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 16 {
		t.Fatalf("count = %d, want 16", res.Count)
	}
	if len(cap0.counts) == 0 || len(cap1.counts) == 0 {
		t.Fatal("count replies not captured")
	}
	// Combine the two replies the way the owner does and find marker
	// positions in the permuted space.
	out0, out1 := cap0.counts[0].Out, cap1.counts[0].Out
	eta := uint64(227)
	var permutedPositions []int
	for i := range out0 {
		if modmath.MulMod(uint64(out0[i]), uint64(out1[i]), eta) == 1 {
			permutedPositions = append(permutedPositions, i)
		}
	}
	if len(permutedPositions) != 16 {
		t.Fatalf("marker count %d != 16", len(permutedPositions))
	}
	// The natural intersection occupies cells 0..15. If the reply were
	// unpermuted, all markers would sit below index 16.
	moved := 0
	for _, p := range permutedPositions {
		if p >= 16 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("count reply markers sit exactly at the natural cells — positions leak")
	}
}

// TestPSUMasksCountOfOwners: PSU output must not reveal how many owners
// hold a value — cells held by 1 owner and by 2 owners both map to
// "random nonzero", and the raw values give no direct count.
func TestPSUMasksCountOfOwners(t *testing.T) {
	dom, _ := IntDomain(1, 113*4)
	sys, err := NewLocalSystem(Config{Owners: 2, Domain: dom, Seed: [32]byte{24}})
	if err != nil {
		t.Fatal(err)
	}
	// Key 1: both owners. Key 2: only owner 0. Key 3: only owner 1.
	sys.Owner(0).Load([]Row{{IntKey: 1}, {IntKey: 2}})
	sys.Owner(1).Load([]Row{{IntKey: 1}, {IntKey: 3}})
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("union %v, want 3 cells", res.Cells)
	}
	// Run PSU repeatedly: the nonzero fop value at the 2-owner cell must
	// vary across queries (fresh masks) — a fixed value would let owners
	// build a dictionary value→owner-count.
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		r, err := sys.PSU(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen[uint64(len(r.Cells))] = true
	}
	if len(seen) != 1 {
		t.Fatal("union size changed across queries")
	}
}
