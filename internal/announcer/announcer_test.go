package announcer

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/share"
)

func testView(m int) *params.AnnouncerView {
	q, _ := new(big.Int).SetString("1000000007", 10)
	return &params.AnnouncerView{M: m, Delta: 113, Q: q}
}

// slotMatrices additively shares a round's values — cols[c] holds cell
// c's value per slot — into the two servers' M×k slot matrices.
func slotMatrices(t *testing.T, v *params.AnnouncerView, cols [][]uint64) [2][][][]byte {
	t.Helper()
	var slots [2][][][]byte
	for phi := range slots {
		slots[phi] = make([][][]byte, v.M)
		for i := range slots[phi] {
			slots[phi][i] = make([][]byte, len(cols))
		}
	}
	for c, col := range cols {
		for i, val := range col {
			sh, err := share.BigSplit(new(big.Int).SetUint64(val), v.Q, 2)
			if err != nil {
				t.Fatal(err)
			}
			slots[0][i][c], slots[1][i][c] = sh[0].Bytes(), sh[1].Bytes()
		}
	}
	return slots
}

// announce runs one vector round under qid through the two-server path
// and returns the per-server result shares.
func announce(t *testing.T, e *Engine, qid string, kind protocol.ExtremeKind, cols [][]uint64) [2]protocol.AnnounceFetchReply {
	t.Helper()
	ctx := context.Background()
	slots := slotMatrices(t, e.view, cols)
	for phi := 0; phi < 2; phi++ {
		_, err := e.Handle(ctx, protocol.AnnounceRequest{
			QueryID: qid, Kind: kind, ServerIdx: phi, Slots: slots[phi],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out [2]protocol.AnnounceFetchReply
	for phi := 0; phi < 2; phi++ {
		r, err := e.Handle(ctx, protocol.AnnounceFetchRequest{QueryID: qid, ServerIdx: phi})
		if err != nil {
			t.Fatal(err)
		}
		out[phi] = r.(protocol.AnnounceFetchReply)
		if !out[phi].Ready {
			t.Fatal("result not ready after both matrices")
		}
	}
	return out
}

// feed runs a single-cell round over values (the k = 1 case).
func feed(t *testing.T, kind protocol.ExtremeKind, values []uint64) (*Engine, [2]protocol.AnnounceFetchReply) {
	t.Helper()
	e := New(testView(len(values)))
	return e, announce(t, e, "q", kind, [][]uint64{values})
}

func reconstruct(t *testing.T, v *params.AnnouncerView, reps [2]protocol.AnnounceFetchReply, k int) uint64 {
	t.Helper()
	val := share.BigReconstruct([]*big.Int{
		new(big.Int).SetBytes(reps[0].ValueShares[k]),
		new(big.Int).SetBytes(reps[1].ValueShares[k]),
	}, v.Q)
	return val.Uint64()
}

func slotIndex(reps [2]protocol.AnnounceFetchReply, c int) uint64 {
	return (uint64(reps[0].IndexShares[c]) + uint64(reps[1].IndexShares[c])) % 113
}

// TestVectorRoundResolvesEveryColumn: one announce carrying three cells
// answers each column on its own — value(s) and winning slot.
func TestVectorRoundResolvesEveryColumn(t *testing.T) {
	cols := [][]uint64{{170, 4682, 5000, 12}, {9, 8, 7, 6}, {1, 1, 2, 2}}
	v := testView(4)
	reps := announce(t, New(v), "q", protocol.KindMax, cols)
	for c, want := range []struct{ val, slot uint64 }{{5000, 2}, {9, 0}, {2, 2}} {
		if got := reconstruct(t, v, reps, c); got != want.val || slotIndex(reps, c) != want.slot {
			t.Errorf("cell %d: max %d at slot %d, want %d at %d", c, got, slotIndex(reps, c), want.val, want.slot)
		}
	}
	reps = announce(t, New(v), "q", protocol.KindMedian, cols)
	if len(reps[0].ValueShares) != 6 || len(reps[0].IndexShares) != 0 {
		t.Fatalf("even-M median of 3 cells: %d value and %d index shares, want 6 and 0", len(reps[0].ValueShares), len(reps[0].IndexShares))
	}
	for c, want := range [][2]uint64{{170, 4682}, {7, 8}, {1, 2}} {
		if lo, hi := reconstruct(t, v, reps, 2*c), reconstruct(t, v, reps, 2*c+1); lo != want[0] || hi != want[1] {
			t.Errorf("cell %d: median pair (%d, %d), want %v", c, lo, hi, want)
		}
	}
}

// TestReduceAcrossRounds: the global reduce names the winning (round,
// cell) over every column of every round, and pools them all for median.
func TestReduceAcrossRounds(t *testing.T) {
	ctx := context.Background()
	rounds := map[string][][]uint64{
		"q/g0": {{5, 9, 1}, {30, 2, 4}},
		"q/g1": {{7, 7, 7}, {3, 31, 8}, {0, 6, 6}},
	}
	for _, c := range []struct {
		kind         protocol.ExtremeKind
		values       []uint64
		sub, cell    int
		wantNoWinner bool
	}{
		{kind: protocol.KindMax, values: []uint64{31}, sub: 1, cell: 1},
		{kind: protocol.KindMin, values: []uint64{0}, sub: 1, cell: 2},
		{kind: protocol.KindMedian, values: []uint64{6}, wantNoWinner: true}, // 15 pooled values
	} {
		e := New(testView(3))
		for qid, cols := range rounds {
			announce(t, e, qid, c.kind, cols)
		}
		r, err := e.Handle(ctx, protocol.ExtremeReduceRequest{QueryID: "red", Kind: c.kind, SubQueryIDs: []string{"q/g0", "q/g1"}})
		if err != nil {
			t.Fatalf("%v: %v", c.kind, err)
		}
		rep := r.(protocol.ExtremeReduceReply)
		var got []uint64
		for _, v := range rep.Values {
			got = append(got, new(big.Int).SetBytes(v).Uint64())
		}
		if len(got) != len(c.values) || got[0] != c.values[0] {
			t.Errorf("%v: reduced to %v, want %v", c.kind, got, c.values)
		}
		if rep.HasWinner == c.wantNoWinner || rep.WinnerSub != c.sub || rep.WinnerCell != c.cell {
			t.Errorf("%v: winner (%d, %d, has=%v), want (%d, %d)", c.kind, rep.WinnerSub, rep.WinnerCell, rep.HasWinner, c.sub, c.cell)
		}
		if e.Sessions() != 2 {
			t.Errorf("%v: reduce left %d sessions, want the 2 rounds", c.kind, e.Sessions())
		}
		// A reduce over an unresolved or differently-kinded round fails.
		if _, err := e.Handle(ctx, protocol.ExtremeReduceRequest{QueryID: "red", Kind: c.kind, SubQueryIDs: []string{"q/g0", "ghost"}}); err == nil {
			t.Errorf("%v: reduce over an unknown round accepted", c.kind)
		}
		if _, err := e.Handle(ctx, protocol.ExtremeReduceRequest{QueryID: "red", Kind: (c.kind + 1) % 3, SubQueryIDs: []string{"q/g0"}}); err == nil {
			t.Errorf("%v: reduce under another kind accepted", c.kind)
		}
	}
}

// TestHostileSlotMatrices: a slot matrix that is not M rows of one common
// non-zero length k, or whose k differs from the other server's, is
// rejected with ErrBadSlots before it touches any state.
func TestHostileSlotMatrices(t *testing.T) {
	ctx := context.Background()
	v := testView(3)
	e := New(v)
	good := slotMatrices(t, v, [][]uint64{{1, 2, 3}, {4, 5, 6}})
	ragged := [][][]byte{good[0][0], good[0][1][:1], good[0][2]}
	for name, slots := range map[string][][][]byte{
		"two rows":   good[0][:2],
		"no cells":   {{}, {}, {}},
		"ragged row": ragged,
	} {
		_, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", Kind: protocol.KindMax, ServerIdx: 0, Slots: slots})
		if !errors.Is(err, ErrBadSlots) {
			t.Errorf("%s: err = %v, want ErrBadSlots", name, err)
		}
		if e.Sessions() != 0 {
			t.Fatalf("%s: rejected announce opened a session", name)
		}
	}
	// S0 announces 2 cells, S1 only 1: rejected, S0's half untouched, and
	// the honest S1 matrix still completes the round.
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", Kind: protocol.KindMax, ServerIdx: 0, Slots: good[0]}); err != nil {
		t.Fatal(err)
	}
	short := slotMatrices(t, v, [][]uint64{{1, 2, 3}})
	_, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", Kind: protocol.KindMax, ServerIdx: 1, Slots: short[1]})
	if !errors.Is(err, ErrBadSlots) {
		t.Fatalf("servers disagreeing on k: err = %v, want ErrBadSlots", err)
	}
	if r, _ := e.Handle(ctx, protocol.AnnounceFetchRequest{QueryID: "q", ServerIdx: 0}); r.(protocol.AnnounceFetchReply).Ready {
		t.Fatal("round resolved from mismatched matrices")
	}
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", Kind: protocol.KindMax, ServerIdx: 1, Slots: good[1]}); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Handle(ctx, protocol.AnnounceFetchRequest{QueryID: "q", ServerIdx: 0})
	if rep := r.(protocol.AnnounceFetchReply); !rep.Ready || len(rep.ValueShares) != 2 {
		t.Fatalf("honest round after a rejected announce: %+v", rep)
	}
	// A duplicate announce after the round resolved is harmless.
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", Kind: protocol.KindMax, ServerIdx: 0, Slots: good[0]}); err != nil {
		t.Fatalf("duplicate announce: %v", err)
	}
}

func TestMaxResolution(t *testing.T) {
	values := []uint64{170, 4682, 5000, 12}
	_, reps := feed(t, protocol.KindMax, values)
	if got := reconstruct(t, testView(4), reps, 0); got != 5000 {
		t.Errorf("max = %d, want 5000", got)
	}
	if idx := slotIndex(reps, 0); idx != 2 {
		t.Errorf("winning slot = %d, want 2", idx)
	}
}

func TestMinResolution(t *testing.T) {
	values := []uint64{170, 4682, 5000, 12}
	_, reps := feed(t, protocol.KindMin, values)
	if got := reconstruct(t, testView(4), reps, 0); got != 12 {
		t.Errorf("min = %d, want 12", got)
	}
	if idx := slotIndex(reps, 0); idx != 3 {
		t.Errorf("winning slot = %d, want 3", idx)
	}
}

func TestMedianOdd(t *testing.T) {
	values := []uint64{50, 10, 30}
	_, reps := feed(t, protocol.KindMedian, values)
	if len(reps[0].ValueShares) != 1 {
		t.Fatalf("odd m should give one median value, got %d", len(reps[0].ValueShares))
	}
	if got := reconstruct(t, testView(3), reps, 0); got != 30 {
		t.Errorf("median = %d, want 30", got)
	}
	if len(reps[0].IndexShares) != 0 {
		t.Error("median must not reveal a slot index")
	}
}

func TestMedianEven(t *testing.T) {
	values := []uint64{50, 10, 30, 40}
	_, reps := feed(t, protocol.KindMedian, values)
	if len(reps[0].ValueShares) != 2 {
		t.Fatalf("even m should give two middle values, got %d", len(reps[0].ValueShares))
	}
	lo := reconstruct(t, testView(4), reps, 0)
	hi := reconstruct(t, testView(4), reps, 1)
	if lo != 30 || hi != 40 {
		t.Errorf("median pair = (%d, %d), want (30, 40)", lo, hi)
	}
}

func TestSharesLookRandom(t *testing.T) {
	// The relayed shares must not equal the plain value (the server
	// relaying them learns nothing).
	values := []uint64{170, 4682, 5000}
	_, reps := feed(t, protocol.KindMax, values)
	s0 := new(big.Int).SetBytes(reps[0].ValueShares[0]).Uint64()
	if s0 == 5000 {
		t.Error("server share equals the plain maximum")
	}
}

func TestFetchBeforeReady(t *testing.T) {
	v := testView(2)
	e := New(v)
	ctx := context.Background()
	sh, _ := share.BigSplit(big.NewInt(10), v.Q, 2)
	_, err := e.Handle(ctx, protocol.AnnounceRequest{
		QueryID: "q", Kind: protocol.KindMax, ServerIdx: 0,
		Slots: [][][]byte{{sh[0].Bytes()}, {sh[0].Bytes()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Handle(ctx, protocol.AnnounceFetchRequest{QueryID: "q", ServerIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.(protocol.AnnounceFetchReply).Ready {
		t.Error("ready with only one server's array")
	}
	r, err = e.Handle(ctx, protocol.AnnounceFetchRequest{QueryID: "ghost", ServerIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.(protocol.AnnounceFetchReply).Ready {
		t.Error("unknown query reported ready")
	}
}

func TestValidation(t *testing.T) {
	v := testView(2)
	e := New(v)
	ctx := context.Background()
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", ServerIdx: 2}); err == nil {
		t.Error("bad server index accepted")
	}
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "q", ServerIdx: 0, Slots: [][][]byte{{{1}}}}); err == nil {
		t.Error("wrong slot count accepted")
	}
	if _, err := e.Handle(ctx, protocol.AnnounceFetchRequest{QueryID: "q", ServerIdx: -1}); err == nil {
		t.Error("negative server index accepted")
	}
	if _, err := e.Handle(ctx, "bogus"); err == nil {
		t.Error("unknown type accepted")
	}
	// Kind mismatch across the two servers.
	sh := [][][]byte{{{1}}, {{2}}}
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "k", Kind: protocol.KindMax, ServerIdx: 0, Slots: sh}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Handle(ctx, protocol.AnnounceRequest{QueryID: "k", Kind: protocol.KindMin, ServerIdx: 1, Slots: sh}); err == nil {
		t.Error("kind mismatch accepted")
	}
}
