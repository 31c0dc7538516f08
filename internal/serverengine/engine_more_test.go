package serverengine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"prism/internal/field"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/sharestore"
)

// fullView builds a consistent server view (with permutations sized to
// the table) directly from the initiator.
func fullView(t testing.TB, phi, m int, b uint64) *params.ServerView {
	t.Helper()
	sys, err := params.Generate(params.Config{
		NumOwners:  m,
		DomainSize: b,
		MaxAgg:     1000,
		Seed:       prg.SeedFromString("engine-more"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.ForServer(phi)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// storeFull uploads owner columns for a 2-owner Plain table with χ, χ̄,
// one sum column and a count column, returning the plain per-cell sums.
func storeFull(t *testing.T, engines []*Engine, b uint64, verify bool) ([][]uint64, [][]uint16) {
	t.Helper()
	return storeSpec(t, engines, protocol.TableSpec{
		Name: "t", B: b, AggCols: []string{"v"},
		HasVerify: verify, HasCount: true, Plain: true,
	})
}

// storeSpec is storeFull for any layout over column "v" and a count
// column.
func storeSpec(t testing.TB, engines []*Engine, spec protocol.TableSpec) ([][]uint64, [][]uint16) {
	t.Helper()
	g := prg.New(prg.SeedFromString("store-full"))
	m := 2
	b, verify := spec.B, spec.HasVerify
	plainSums := make([][]uint64, m)
	plainChis := make([][]uint16, m)
	for owner := 0; owner < m; owner++ {
		chi := make([]uint16, b)
		sums := make([]uint64, b)
		counts := make([]uint64, b)
		for i := range chi {
			chi[i] = uint16(g.Uint64n(2))
			if chi[i] == 1 {
				sums[i] = g.Uint64n(100)
				counts[i] = 1 + g.Uint64n(3)
			}
		}
		plainSums[owner] = sums
		plainChis[owner] = chi
		chiShares := share.AdditiveSplitVector(g, chi, 113, 2)
		barShares := share.AdditiveSplitVector(g, complement(chi), 113, 2)
		sumShares := share.ShamirSplitVector(g, sums, 1, 3)
		cntShares := share.ShamirSplitVector(g, counts, 1, 3)
		for phi, e := range engines {
			req := protocol.StoreRequest{
				Owner: owner, Spec: spec,
				SumCols:  map[string][]uint64{"v": sumShares[phi]},
				CountCol: cntShares[phi],
			}
			if verify {
				req.VSumCols = map[string][]uint64{"v": sumShares[phi]}
				req.VCountCol = cntShares[phi]
			}
			if phi < 2 {
				req.ChiAdd = chiShares[phi]
				if verify {
					req.ChiBarAdd = barShares[phi]
				}
			}
			if _, err := e.Handle(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	return plainSums, plainChis
}

func complement(chi []uint16) []uint16 {
	out := make([]uint16, len(chi))
	for i, v := range chi {
		out[i] = 1 - v
	}
	return out
}

func newEngines(t *testing.T, b uint64, opts func(phi int) Options) []*Engine {
	t.Helper()
	engines := make([]*Engine, 3)
	for phi := 0; phi < 3; phi++ {
		o := Options{Threads: 2}
		if opts != nil {
			o = opts(phi)
		}
		engines[phi] = New(fullView(t, phi, 2, b), o)
	}
	return engines
}

// TestAggregationReconstructs drives handleAgg directly and Lagrange-
// reconstructs the replies against the plain sums.
func TestAggregationReconstructs(t *testing.T) {
	b := uint64(64)
	engines := newEngines(t, b, nil)
	plainSums, plainChis := storeFull(t, engines, b, false)
	ctx := context.Background()

	// Selector z = 1 everywhere (aggregate every cell).
	g := prg.New(prg.SeedFromString("agg-z"))
	z := make([]uint64, b)
	for i := range z {
		z[i] = 1
	}
	zShares := share.ShamirSplitVector(g, z, 1, 3)
	replies := make([]protocol.AggReply, 3)
	for phi, e := range engines {
		r, err := e.Handle(ctx, protocol.AggRequest{
			Table: "t", Cols: []string{"v"}, WithCount: true, Z: zShares[phi],
		})
		if err != nil {
			t.Fatal(err)
		}
		replies[phi] = r.(protocol.AggReply)
	}
	for i := uint64(0); i < b; i++ {
		got := share.ShamirReconstruct([]field.Elem{
			replies[0].Sums["v"][i], replies[1].Sums["v"][i], replies[2].Sums["v"][i],
		})
		want := field.Add(field.Reduce(plainSums[0][i]), field.Reduce(plainSums[1][i]))
		if got != want {
			t.Fatalf("cell %d: sum %d want %d", i, got, want)
		}
	}
	_ = plainChis
}

func TestAggValidationErrors(t *testing.T) {
	b := uint64(16)
	engines := newEngines(t, b, nil)
	storeFull(t, engines, b, false)
	ctx := context.Background()
	e := engines[0]
	// Wrong selector length.
	if _, err := e.Handle(ctx, protocol.AggRequest{Table: "t", Cols: []string{"v"}, Z: make([]uint64, 3)}); err == nil {
		t.Error("short selector accepted")
	}
	// Verification requested without v-columns.
	if _, err := e.Handle(ctx, protocol.AggRequest{
		Table: "t", Cols: []string{"v"}, Z: make([]uint64, b), VZ: make([]uint64, b),
	}); err == nil {
		t.Error("verify without v-columns accepted")
	}
	// Unknown column.
	if _, err := e.Handle(ctx, protocol.AggRequest{Table: "t", Cols: []string{"ghost"}, Z: make([]uint64, b)}); err == nil {
		t.Error("unknown column accepted")
	}
	// Count requested on a table without count column → need new table.
	spec := protocol.TableSpec{Name: "nocount", B: b, Plain: true}
	g := prg.New(prg.SeedFromString("nocount"))
	chi := make([]uint16, b)
	for owner := 0; owner < 2; owner++ {
		sh := share.AdditiveSplitVector(g, chi, 113, 2)
		for phi := 0; phi < 2; phi++ {
			engines[phi].Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: spec, ChiAdd: sh[phi]})
		}
		engines[2].Handle(ctx, protocol.StoreRequest{Owner: owner, Spec: spec})
	}
	if _, err := e.Handle(ctx, protocol.AggRequest{Table: "nocount", WithCount: true, Z: make([]uint64, b)}); err == nil {
		t.Error("count aggregation without count column accepted")
	}
}

// TestRefusedAggregationHoldsNothing: an aggregation the server refuses
// — a column the table lacks after one it has, or a count on a table
// without a count column — is refused before its first fetch, so it
// builds no owner sum: held bytes stay as they were, in memory and on
// disk.
func TestRefusedAggregationHoldsNothing(t *testing.T) {
	const b = 16
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			opts := Options{Threads: 1}
			if disk {
				st, err := sharestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				opts.Store = st
			}
			e := New(fullView(t, 0, 2, b), opts)
			storeFull(t, []*Engine{e}, b, false)
			storeSpec(t, []*Engine{e}, protocol.TableSpec{Name: "nocount", B: b, AggCols: []string{"v"}, Plain: true})
			for _, req := range []protocol.AggRequest{
				{Table: "t", Cols: []string{"v", "x"}, Z: make([]uint64, b)},
				{Table: "nocount", Cols: []string{"v"}, WithCount: true, Z: make([]uint64, b)},
			} {
				before := e.HeldBytes()
				if _, err := e.Handle(context.Background(), req); err == nil {
					t.Fatalf("%+v accepted", req)
				}
				if after := e.HeldBytes(); after != before {
					t.Errorf("refused %s %v: held bytes %d → %d", req.Table, req.Cols, before, after)
				}
			}
		})
	}
}

// TestCountVerifyAlignment checks the Eq. (1) alignment property at the
// engine level: combining PF_s1(out) and PF_s2(vout) from both servers
// yields r1·r2 ≡ 1 at every position.
func TestCountVerifyAlignment(t *testing.T) {
	// Use non-plain storage with the real PF_db permutations, driven
	// through params so Eq. (1) holds.
	sys, err := params.Generate(params.Config{
		NumOwners:  2,
		DomainSize: 64,
		MaxAgg:     100,
		Seed:       prg.SeedFromString("count-align"),
	})
	if err != nil {
		t.Fatal(err)
	}
	g := prg.New(prg.SeedFromString("count-align-data"))
	engines := make([]*Engine, 2)
	for phi := 0; phi < 2; phi++ {
		v, _ := sys.ForServer(phi)
		engines[phi] = New(v, Options{Threads: 1})
	}
	ov := sys.ForOwner()
	spec := protocol.TableSpec{Name: "t", B: 64, HasVerify: true}
	for owner := 0; owner < 2; owner++ {
		chi := make([]uint16, 64)
		for i := range chi {
			chi[i] = uint16(g.Uint64n(2))
		}
		chiP := perm.Apply(ov.DB1, chi, nil)
		barP := perm.Apply(ov.DB2, complement(chi), nil)
		chiShares := share.AdditiveSplitVector(g, chiP, sys.Delta, 2)
		barShares := share.AdditiveSplitVector(g, barP, sys.Delta, 2)
		for phi := 0; phi < 2; phi++ {
			_, err := engines[phi].Handle(context.Background(), protocol.StoreRequest{
				Owner: owner, Spec: spec,
				ChiAdd: chiShares[phi], ChiBarAdd: barShares[phi],
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	outs := make([]protocol.CountReply, 2)
	for phi := 0; phi < 2; phi++ {
		r, err := engines[phi].Handle(context.Background(), protocol.CountRequest{
			Table: "t", Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs[phi] = r.(protocol.CountReply)
	}
	eta := sys.Eta
	for i := range outs[0].Out {
		r1 := uint64(outs[0].Out[i]) * uint64(outs[1].Out[i]) % eta
		r2 := uint64(outs[0].Vout[i]) * uint64(outs[1].Vout[i]) % eta
		if r1*r2%eta != 1 {
			t.Fatalf("position %d: r1·r2 = %d, want 1 (Eq. 1 alignment broken)", i, r1*r2%eta)
		}
	}

	// A verified PSI reply is the same two sides in stored order: the
	// count's vectors are its PF_s1 / PF_s2 images, whole or windowed,
	// and the owner's PF_db1 / PF_db2 align it cell by cell (Equation 10).
	sv, _ := sys.ForServer(0)
	psis := make([]protocol.PSIReply, 2)
	for phi := 0; phi < 2; phi++ {
		for _, rg := range []protocol.Range{{Offset: 0, Count: 40}, {Offset: 40, Count: 24}} {
			r, err := engines[phi].Handle(context.Background(), protocol.PSIRequest{Table: "t", Verify: true, Shard: rg})
			if err != nil {
				t.Fatal(err)
			}
			psis[phi].Out = append(psis[phi].Out, r.(protocol.PSIReply).Out...)
			psis[phi].Vout = append(psis[phi].Vout, r.(protocol.PSIReply).Vout...)
		}
		if !reflect.DeepEqual(perm.Apply(sv.S1, psis[phi].Out, nil), outs[phi].Out) ||
			!reflect.DeepEqual(perm.Apply(sv.S2, psis[phi].Vout, nil), outs[phi].Vout) {
			t.Fatalf("server %d: count reply is not the server-permuted PSI reply", phi)
		}
	}
	for i := range ov.DB1 {
		r1 := uint64(psis[0].Out[ov.DB1[i]]) * uint64(psis[1].Out[ov.DB1[i]]) % eta
		r2 := uint64(psis[0].Vout[ov.DB2[i]]) * uint64(psis[1].Vout[ov.DB2[i]]) % eta
		if r1*r2%eta != 1 {
			t.Fatalf("cell %d: r1·r2 = %d, want 1 (Eq. 10)", i, r1*r2%eta)
		}
	}
	// Unasked, no proof travels.
	r, err := engines[0].Handle(context.Background(), protocol.PSIRequest{Table: "t"})
	if err != nil || r.(protocol.PSIReply).Vout != nil {
		t.Fatalf("unverified PSI: Vout = %v, err = %v", r.(protocol.PSIReply).Vout, err)
	}
}

// TestDiskBackedSpillAndFetch exercises the disk path end to end at the
// engine level, including fetch-time accounting.
func TestDiskBackedSpillAndFetch(t *testing.T) {
	b := uint64(128)
	engines := newEngines(t, b, func(phi int) Options {
		st, err := sharestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return Options{Threads: 2, Store: st}
	})
	storeFull(t, engines, b, false)
	ctx := context.Background()
	r, err := engines[0].Handle(ctx, protocol.PSIRequest{Table: "t", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.(protocol.PSIReply)
	if rep.Stats.FetchNS == 0 {
		t.Error("disk-backed PSI reported zero fetch time")
	}
	if len(rep.Out) != int(b) {
		t.Errorf("out length %d", len(rep.Out))
	}
	// Aggregation also reads from disk.
	g := prg.New(prg.SeedFromString("disk-z"))
	z := make([]uint64, b)
	zs := share.ShamirSplitVector(g, z, 1, 3)
	ra, err := engines[2].Handle(ctx, protocol.AggRequest{Table: "t", Cols: []string{"v"}, Z: zs[2]})
	if err != nil {
		t.Fatal(err)
	}
	if ra.(protocol.AggReply).Stats.FetchNS == 0 {
		t.Error("disk-backed aggregation reported zero fetch time")
	}
}

// announcerStub lets extreme-submit tests run without a real announcer.
type announcerStub struct {
	announces []protocol.AnnounceRequest
	reply     protocol.AnnounceFetchReply
}

func (a *announcerStub) Call(_ context.Context, addr string, req any) (any, error) {
	switch r := req.(type) {
	case protocol.AnnounceRequest:
		a.announces = append(a.announces, r)
		return protocol.AnnounceReply{Have: 1}, nil
	case protocol.AnnounceFetchRequest:
		return a.reply, nil
	}
	return nil, nil
}

func (a *announcerStub) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	reply, err := a.Call(ctx, addr, req)
	return reply, func() {}, err
}

func TestExtremeSlotPermutation(t *testing.T) {
	stub := &announcerStub{}
	view := fullView(t, 0, 2, 16)
	e := New(view, Options{AnnouncerAddr: "announcer", Caller: stub})
	ctx := context.Background()
	// Submit distinct 3-cell share vectors for the 2 owners.
	row := func(owner int) [][]byte {
		return [][]byte{{byte(owner + 1), 0}, {byte(owner + 1), 1}, {byte(owner + 1), 2}}
	}
	for owner := 0; owner < 2; owner++ {
		_, err := e.Handle(ctx, protocol.ExtremeSubmitRequest{
			QueryID: "q", Kind: protocol.KindMax, Owner: owner, VShares: row(owner),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(stub.announces) != 1 {
		t.Fatalf("announcer called %d times, want 1", len(stub.announces))
	}
	got := stub.announces[0].Slots
	// Slot i of the forwarded matrix must hold owner PF⁻¹(i)'s whole row:
	// one PF for every cell, cells in submitted order.
	inv := view.PF.Inverse()
	for slot := range got {
		if want := row(inv.Image(slot)); !reflect.DeepEqual(got[slot], want) {
			t.Fatalf("slot %d holds %v, want owner %d's row %v", slot, got[slot], inv.Image(slot), want)
		}
	}
	// Duplicate submissions are idempotent (no second announce).
	e.Handle(ctx, protocol.ExtremeSubmitRequest{QueryID: "q", Kind: protocol.KindMax, Owner: 0, VShares: row(7)})
	if len(stub.announces) != 1 {
		t.Error("duplicate submit re-forwarded")
	}
}

func TestExtremeFetchNotReady(t *testing.T) {
	stub := &announcerStub{reply: protocol.AnnounceFetchReply{Ready: false}}
	e := New(fullView(t, 0, 2, 16), Options{AnnouncerAddr: "announcer", Caller: stub})
	ctx := context.Background()
	e.Handle(ctx, protocol.ExtremeSubmitRequest{QueryID: "q", Kind: protocol.KindMax, Owner: 0, VShares: [][]byte{{1}}})
	r, err := e.Handle(ctx, protocol.ExtremeFetchRequest{QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if r.(protocol.ExtremeFetchReply).Ready {
		t.Error("fetch reported ready before announcer resolution")
	}
	if _, err := e.Handle(ctx, protocol.ExtremeFetchRequest{QueryID: "ghost"}); err == nil {
		t.Error("unknown query id accepted")
	}
}

func TestExtremeFetchCachesResult(t *testing.T) {
	stub := &announcerStub{reply: protocol.AnnounceFetchReply{
		Ready: true, ValueShares: [][]byte{{42}, {43}}, IndexShares: []uint16{3, 4},
	}}
	e := New(fullView(t, 1, 2, 16), Options{AnnouncerAddr: "announcer", Caller: stub})
	ctx := context.Background()
	e.Handle(ctx, protocol.ExtremeSubmitRequest{QueryID: "q", Kind: protocol.KindMax, Owner: 0, VShares: [][]byte{{1}, {2}}})
	for i := 0; i < 3; i++ {
		r, err := e.Handle(ctx, protocol.ExtremeFetchRequest{QueryID: "q"})
		if err != nil {
			t.Fatal(err)
		}
		rep := r.(protocol.ExtremeFetchReply)
		if !rep.Ready || rep.ValueShares[1][0] != 43 || !reflect.DeepEqual(rep.IndexShares, []uint16{3, 4}) {
			t.Fatalf("fetch %d: %+v", i, rep)
		}
	}
}

func TestClaimLifecycle(t *testing.T) {
	e := New(fullView(t, 0, 2, 16), Options{AnnouncerAddr: "announcer", Caller: &announcerStub{}})
	ctx := context.Background()
	// Not ready before all owners.
	e.Handle(ctx, protocol.ClaimSubmitRequest{QueryID: "q", Owner: 1, Shares: []uint16{7, 8, 9}})
	r, _ := e.Handle(ctx, protocol.ClaimFetchRequest{QueryID: "q"})
	if r.(protocol.ClaimFetchReply).Ready {
		t.Error("claims ready with 1 of 2 owners")
	}
	e.Handle(ctx, protocol.ClaimSubmitRequest{QueryID: "q", Owner: 0, Shares: []uint16{4, 5, 6}})
	// A duplicate neither overwrites nor counts twice.
	e.Handle(ctx, protocol.ClaimSubmitRequest{QueryID: "q", Owner: 0, Shares: []uint16{1, 1, 1}})
	r, _ = e.Handle(ctx, protocol.ClaimFetchRequest{QueryID: "q"})
	rep := r.(protocol.ClaimFetchReply)
	// fpos is owner-major: owner i's share for cell c at i·k+c.
	if !rep.Ready || !reflect.DeepEqual(rep.Fpos, []uint16{4, 5, 6, 7, 8, 9}) {
		t.Fatalf("claims = %+v", rep)
	}
	// Unknown query id → not ready, no error.
	r, err := e.Handle(ctx, protocol.ClaimFetchRequest{QueryID: "ghost"})
	if err != nil || r.(protocol.ClaimFetchReply).Ready {
		t.Error("ghost claim query mishandled")
	}
	// Out-of-range owner rejected.
	if _, err := e.Handle(ctx, protocol.ClaimSubmitRequest{QueryID: "q", Owner: 9, Shares: []uint16{1, 1, 1}}); err == nil {
		t.Error("out-of-range claim owner accepted")
	}
}

// TestHostileVectorLengths: an extreme or claim submit whose vector is
// empty, longer than the domain, or not the k the query's first submit
// fixed is rejected with ErrBadVector — no session opened, no state of an
// open session changed, and the honest owners still complete the round.
func TestHostileVectorLengths(t *testing.T) {
	stub := &announcerStub{}
	view := fullView(t, 0, 2, 16)
	e := New(view, Options{AnnouncerAddr: "announcer", Caller: stub})
	ctx := context.Background()
	vec := func(k int) [][]byte { return make([][]byte, k) }
	submit := func(owner, k int) error {
		_, err := e.Handle(ctx, protocol.ExtremeSubmitRequest{QueryID: "q", Kind: protocol.KindMax, Owner: owner, VShares: vec(k)})
		return err
	}
	claim := func(owner, k int) error {
		_, err := e.Handle(ctx, protocol.ClaimSubmitRequest{QueryID: "q", Owner: owner, Shares: make([]uint16, k)})
		return err
	}
	for _, k := range []int{0, 17} { // view.B = 16
		if err := submit(0, k); !errors.Is(err, ErrBadVector) {
			t.Errorf("extreme submit of %d cells: err = %v, want ErrBadVector", k, err)
		}
		if err := claim(0, k); !errors.Is(err, ErrBadVector) {
			t.Errorf("claim submit of %d cells: err = %v, want ErrBadVector", k, err)
		}
	}
	if n := e.Sessions(); n != 0 {
		t.Fatalf("rejected submits opened %d sessions", n)
	}
	if err := submit(0, 4); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 5, 16} {
		if err := submit(1, k); !errors.Is(err, ErrBadVector) {
			t.Errorf("extreme submit of %d cells into a 4-cell query: err = %v, want ErrBadVector", k, err)
		}
		if err := claim(1, k); !errors.Is(err, ErrBadVector) {
			t.Errorf("claim submit of %d cells into a 4-cell query: err = %v, want ErrBadVector", k, err)
		}
	}
	if len(stub.announces) != 0 {
		t.Fatal("a rejected vector completed the round")
	}
	if r, _ := e.Handle(ctx, protocol.ClaimFetchRequest{QueryID: "q"}); r.(protocol.ClaimFetchReply).Ready {
		t.Fatal("a rejected claim vector was absorbed")
	}
	if err := submit(1, 4); err != nil {
		t.Fatal(err)
	}
	if len(stub.announces) != 1 || len(stub.announces[0].Slots[0]) != 4 {
		t.Fatalf("honest round after rejected vectors forwarded %+v", stub.announces)
	}
	if err := errors.Join(claim(0, 4), claim(1, 4)); err != nil {
		t.Fatal(err)
	}
	if r, _ := e.Handle(ctx, protocol.ClaimFetchRequest{QueryID: "q"}); len(r.(protocol.ClaimFetchReply).Fpos) != 8 {
		t.Fatalf("claims after rejected vectors: %+v", r)
	}
}

func TestPSUPermuteMode(t *testing.T) {
	b := uint64(64)
	engines := newEngines(t, b, nil)
	storeSpec(t, engines, protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasCount: true})
	ctx := context.Background()
	plain, err := engines[0].Handle(ctx, protocol.PSURequest{Table: "t", QueryID: "q"})
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := engines[0].Handle(ctx, protocol.PSURequest{Table: "t", QueryID: "q", Permute: true})
	if err != nil {
		t.Fatal(err)
	}
	p := plain.(protocol.PSUReply).Out
	q := permuted.(protocol.PSUReply).Out
	if len(p) != len(q) {
		t.Fatal("length mismatch")
	}
	same := 0
	for i := range p {
		if p[i] == q[i] {
			same++
		}
	}
	if same == len(p) {
		t.Error("PF_s1 permutation did not move any cell")
	}
	// Reply position S1[i] holds stored cell i's sum under its own mask;
	// masks are nonzero, so the zero patterns agree position by position.
	s1 := engines[0].view.S1
	for i := range p {
		if (p[i] == 0) != (q[s1[i]] == 0) {
			t.Fatalf("stored cell %d: zero = %v, at reply position %d zero = %v", i, p[i] == 0, s1[i], q[s1[i]] == 0)
		}
	}
}

func TestVerifyRequestsRejectedWithoutColumns(t *testing.T) {
	b := uint64(16)
	engines := newEngines(t, b, nil)
	storeFull(t, engines, b, false) // HasVerify = false
	ctx := context.Background()
	if _, err := engines[0].Handle(ctx, protocol.PSIRequest{Table: "t", Verify: true}); err == nil {
		t.Error("PSI verify without χ̄ accepted")
	}
	if _, err := engines[0].Handle(ctx, protocol.CountRequest{Table: "t", Verify: true}); err == nil {
		t.Error("count verify without χ̄ accepted")
	}
}

// TestPermutedPSUOnPlainTableRejected: PF_s1 spans the system domain, so
// a permuted PSU over a Plain table — any bucket-tree level, fewer cells
// than the domain — used to index past the reply or past the columns
// and panic the handler. It must be refused like a count is, leaving no
// state behind, in RAM and on disk.
func TestPermutedPSUOnPlainTableRejected(t *testing.T) {
	for name, store := range map[string]bool{"ram": false, "disk": true} {
		t.Run(name, func(t *testing.T) {
			engines := newEngines(t, 64, func(int) Options {
				o := Options{Threads: 2}
				if store {
					st, err := sharestore.Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					o.Store = st
				}
				return o
			})
			storeFull(t, engines, 8, false) // a Plain level of 8 cells under a 64-cell domain
			e := engines[0]
			sessions, held := e.Sessions(), e.HeldBytes()
			for _, shard := range []protocol.Range{{}, {Offset: 0, Count: 2}} {
				_, err := e.Handle(context.Background(), protocol.PSURequest{Table: "t", QueryID: "q", Permute: true, Shard: shard})
				if err == nil {
					t.Errorf("shard %+v: permuted PSU over a Plain table accepted", shard)
				}
			}
			if e.Sessions() != sessions || e.HeldBytes() != held {
				t.Errorf("rejected requests left state: sessions %d → %d, held bytes %d → %d", sessions, e.Sessions(), held, e.HeldBytes())
			}
		})
	}
}
