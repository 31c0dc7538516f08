package ownerengine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// shapeShifter returns malformed-but-typed replies to exercise the
// owner's reply validation (wrong lengths, wrong types).
type shapeShifter struct {
	mode string
	b    int
}

func (s *shapeShifter) Call(_ context.Context, addr string, req any) (any, error) {
	switch req.(type) {
	case protocol.StoreRequest:
		return protocol.StoreReply{Cells: uint64(s.b)}, nil
	case protocol.PSIRequest:
		switch s.mode {
		case "short":
			return protocol.PSIReply{Out: make([]uint32, s.b-1)}, nil
		case "wrongtype":
			return protocol.PSUReply{Out: make([]uint16, s.b)}, nil
		}
		// Right-sized result vector, short (or, unasked, absent) proof.
		return protocol.PSIReply{Out: make([]uint32, s.b), Vout: make([]uint32, s.b-2)}, nil
	case protocol.PSURequest:
		return protocol.PSUReply{Out: make([]uint16, s.b+1)}, nil
	case protocol.CountRequest:
		if s.mode == "noproof" {
			return protocol.CountReply{Out: make([]uint32, s.b)}, nil
		}
		return protocol.CountReply{Out: make([]uint32, s.b/2)}, nil
	case protocol.AggRequest:
		if s.mode == "noproof" {
			return protocol.AggReply{Sums: map[string][]uint64{"v": make([]uint64, s.b)}, Counts: make([]uint64, s.b),
				VSums: map[string][]uint64{"v": make([]uint64, s.b)}}, nil // no VCounts
		}
		return protocol.AggReply{Sums: map[string][]uint64{"v": make([]uint64, 1)}}, nil
	case protocol.ExtremeFetchRequest:
		return protocol.ExtremeFetchReply{Ready: true, ValueShares: [][]byte{{1}}}, nil
	case protocol.ClaimFetchRequest:
		return protocol.ClaimFetchReply{Ready: true, Fpos: make([]uint16, 1)}, nil
	}
	return protocol.StoreReply{}, nil
}

func shapeOwner(t *testing.T, mode string) *Owner {
	t.Helper()
	sys, err := params.Generate(params.Config{
		NumOwners:  2,
		DomainSize: 16,
		MaxAgg:     100,
		Seed:       prg.SeedFromString("bad-server"),
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(0, sys.ForOwner(), &shapeShifter{mode: mode, b: 16},
		[]string{"s0", "s1", "s2"}, prg.SeedFromString("o"))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Load(&Data{Cells: []uint64{1}, Aggs: map[string][]uint64{"v": {5}}}); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOwnerRejectsShortPSIReply(t *testing.T) {
	o := shapeOwner(t, "short")
	if _, err := o.PSI(context.Background(), "t", false); err == nil {
		t.Error("short PSI reply accepted")
	}
}

func TestOwnerRejectsWrongReplyType(t *testing.T) {
	o := shapeOwner(t, "wrongtype")
	if _, err := o.PSI(context.Background(), "t", false); err == nil {
		t.Error("mistyped PSI reply accepted")
	}
}

func TestOwnerRejectsMalformedReplies(t *testing.T) {
	o := shapeOwner(t, "")
	ctx := context.Background()
	if _, err := o.PSU(ctx, "t"); err == nil {
		t.Error("oversized PSU reply accepted")
	}
	if _, err := o.Count(ctx, "t", false); err == nil {
		t.Error("half-length count reply accepted")
	}
	if _, err := o.Aggregate(ctx, "t", []uint64{1}, []string{"v"}, false, false); err == nil {
		t.Error("one-cell aggregation reply accepted")
	}
	// The stub answers every round with one value share and one fpos
	// entry, whatever was asked.
	if _, err := o.FetchClaims(ctx, "q", []uint64{1}); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("1-entry fpos for a 2-owner round: err = %v, want ErrVerificationFailed", err)
	}
	if _, err := o.FetchExtreme(ctx, "q", protocol.KindMax, []uint64{1}); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("extreme reply without index shares: err = %v, want ErrVerificationFailed", err)
	}
}

// TestMissingProofIsVerificationFailure: a verification vector that was
// asked for and comes back short or not at all is a server fault — the
// owner fails closed with ErrVerificationFailed, whichever kind asked.
func TestMissingProofIsVerificationFailure(t *testing.T) {
	ctx := context.Background()
	if _, err := shapeOwner(t, "").PSI(ctx, "t", true); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("PSI reply with a short Vout: err = %v, want ErrVerificationFailed", err)
	}
	o := shapeOwner(t, "noproof")
	if _, err := o.Count(ctx, "t", true); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("count reply without Vout: err = %v, want ErrVerificationFailed", err)
	}
	if _, err := o.Aggregate(ctx, "t", []uint64{1}, []string{"v"}, true, true); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("aggregation reply without VCounts: err = %v, want ErrVerificationFailed", err)
	}
	// Unasked, the same replies are merely answers: no proof is missed.
	if _, err := o.Count(ctx, "t", false); err != nil {
		t.Errorf("unverified count: %v", err)
	}
}

// TestExtremeFetchTamperedShareCaught: a random single-byte share for a
// value reconstructs outside F's image with overwhelming probability.
func TestExtremeFetchTamperedShareCaught(t *testing.T) {
	o := shapeOwner(t, "")
	_, err := o.FetchExtreme(context.Background(), "q", protocol.KindMedian, []uint64{1})
	if !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("tampered extreme value: err = %v, want ErrVerificationFailed", err)
	}
}

// TestVectorReplyShapesChecked runs an honest 3-cell max round and
// rewrites one server's fetch and claim replies to every wrong shape: a
// vector shorter or longer than the k submitted (so S0 and S1 disagree),
// or both servers agreeing on a wrong k. Each is ErrVerificationFailed —
// never a panic or an out-of-range index — and the honest replies still
// decode afterwards.
func TestVectorReplyShapesChecked(t *testing.T) {
	r := newRig(t, 3, 32)
	ctx := context.Background()
	cells := []uint64{4, 9, 20}
	for i, o := range r.owners {
		if err := o.SubmitExtreme(ctx, "q", protocol.KindMax, cells, []uint64{uint64(10 + i), 7, uint64(30 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range r.owners {
		if err := o.SubmitClaim(ctx, "q", cells, []bool{i == 2, true, i == 0}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		reshape func(reply any) any // nil → honest
		both    bool                // reshape S0's replies as well as S1's
	)
	for phi := 0; phi < 2; phi++ {
		inner := r.servers[phi]
		r.network.Register(serverAddr(phi), transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
			reply, err := inner.Handle(ctx, req)
			if err != nil || reshape == nil || (phi == 0 && !both) {
				return reply, err
			}
			if out := reshape(reply); out != nil {
				return out, nil
			}
			return reply, nil
		}))
	}
	q := r.owners[1]
	shapes := map[string]func(reply any) any{
		"one value share short": func(reply any) any {
			if rep, ok := reply.(protocol.ExtremeFetchReply); ok {
				rep.ValueShares = rep.ValueShares[:2]
				return rep
			}
			return nil
		},
		"one value share long": func(reply any) any {
			if rep, ok := reply.(protocol.ExtremeFetchReply); ok {
				rep.ValueShares = append(append([][]byte(nil), rep.ValueShares...), []byte{1})
				return rep
			}
			return nil
		},
		"one index share short": func(reply any) any {
			if rep, ok := reply.(protocol.ExtremeFetchReply); ok {
				rep.IndexShares = rep.IndexShares[:2]
				return rep
			}
			return nil
		},
		"no index shares": func(reply any) any {
			if rep, ok := reply.(protocol.ExtremeFetchReply); ok {
				rep.IndexShares = nil
				return rep
			}
			return nil
		},
		"fpos one cell short": func(reply any) any {
			if rep, ok := reply.(protocol.ClaimFetchReply); ok {
				rep.Fpos = rep.Fpos[:len(rep.Fpos)-3]
				return rep
			}
			return nil
		},
		"fpos one entry long": func(reply any) any {
			if rep, ok := reply.(protocol.ClaimFetchReply); ok {
				rep.Fpos = append(append([]uint16(nil), rep.Fpos...), 0)
				return rep
			}
			return nil
		},
	}
	for _, both = range []bool{false, true} {
		for name, shape := range shapes {
			reshape = shape
			_, errF := q.FetchExtreme(ctx, "q", protocol.KindMax, cells)
			_, errC := q.FetchClaims(ctx, "q", cells)
			if bad := errors.Join(errF, errC); !errors.Is(bad, ErrVerificationFailed) {
				t.Errorf("%s (both servers: %v): fetch err = %v, claims err = %v, want one ErrVerificationFailed", name, both, errF, errC)
			}
		}
	}
	reshape = nil
	oc, err := q.FetchExtreme(ctx, "q", protocol.KindMax, cells)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]uint64{{12}, {7}, {30}}; !reflect.DeepEqual(oc.Values, want) {
		t.Errorf("honest max after hostile replies = %v, want %v", oc.Values, want)
	}
	claims, err := q.FetchClaims(ctx, "q", cells)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]bool{{false, false, true}, {true, true, true}, {true, false, false}}; !reflect.DeepEqual(claims, want) {
		t.Errorf("honest claims after hostile replies = %v, want %v", claims, want)
	}
	for c, slot := range oc.WinnerSlots {
		if !claims[c][slot] {
			t.Errorf("cell %d: announced winner %d does not claim", cells[c], slot)
		}
	}
}
