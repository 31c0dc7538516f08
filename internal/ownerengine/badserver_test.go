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
// owner's reply validation. A set round's reply vector is one cell short
// ("short") or long ("long"), of another round's type ("wrongtype"), or
// right-sized with its proof short ("") or absent ("noproof").
type shapeShifter struct {
	mode string
	b    int
}

func (s *shapeShifter) Call(_ context.Context, addr string, req any) (any, error) {
	out := map[string]int{"short": s.b - 1, "long": s.b + 1}[s.mode]
	if out == 0 {
		out = s.b
	}
	vout := make([]uint32, s.b-2)
	if s.mode == "noproof" {
		vout = nil
	}
	wrong := s.mode == "wrongtype"
	if l, ok := req.(*protocol.Laid); ok { // a Caller takes a laid request over
		defer l.Release()
		req, _ = l.Message()
	}
	switch req.(type) {
	case protocol.StoreRequest:
		return protocol.StoreReply{Cells: uint64(s.b)}, nil
	case protocol.PSIRequest:
		if wrong {
			return protocol.CountReply{Out: make([]uint32, s.b)}, nil
		}
		return protocol.PSIReply{Out: make([]uint32, out), Vout: vout}, nil
	case protocol.CountRequest:
		if wrong {
			return protocol.PSIReply{Out: make([]uint32, s.b)}, nil
		}
		return protocol.CountReply{Out: make([]uint32, out), Vout: vout}, nil
	case protocol.PSURequest:
		if wrong {
			return protocol.PSIReply{Out: make([]uint32, s.b)}, nil
		}
		return protocol.PSUReply{Out: make([]uint16, out)}, nil
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

func (s *shapeShifter) CallBorrowed(ctx context.Context, addr string, req any) (any, func(), error) {
	reply, err := s.Call(ctx, addr, req)
	return reply, func() {}, err
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
	o, err := New(0, []GroupConfig{{View: sys.ForOwner(), Servers: []string{"s0", "s1", "s2"}}},
		&shapeShifter{mode: mode, b: 16}, 0, prg.SeedFromString("o"))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Load(&Data{Cells: []uint64{1}, Aggs: map[string][]uint64{"v": {5}}}); err != nil {
		t.Fatal(err)
	}
	return o
}

// setKinds are the kinds whose round 1 is the set round.
var setKinds = []OpKind{OpPSI, OpPSU, OpPSICount, OpPSUCount}

// execSet runs kind k through Exec against a shapeShifter in mode.
func execSet(t *testing.T, mode string, k OpKind, verify bool) error {
	t.Helper()
	_, err := shapeOwner(t, mode).Exec(context.Background(), Query{Kind: k, Table: "t", Verify: verify}, nil)
	return err
}

func TestOwnerRejectsShortPSIReply(t *testing.T) {
	if execSet(t, "short", OpPSI, false) == nil {
		t.Error("short PSI reply accepted")
	}
}

func TestOwnerRejectsWrongReplyType(t *testing.T) {
	for _, k := range setKinds {
		if execSet(t, "wrongtype", k, false) == nil {
			t.Errorf("%v: mistyped reply accepted", k)
		}
	}
}

func TestOwnerRejectsMalformedReplies(t *testing.T) {
	for _, k := range setKinds {
		for _, mode := range []string{"short", "long"} {
			if execSet(t, mode, k, false) == nil {
				t.Errorf("%v: %s reply accepted", k, mode)
			}
		}
	}
	e := shapeOwner(t, "").groups[0]
	ctx := context.Background()
	if _, err := e.Aggregate(ctx, "t", []uint64{1}, []string{"v"}, false, false); err == nil {
		t.Error("one-cell aggregation reply accepted")
	}
	// The stub answers every round with one value share and one fpos
	// entry, whatever was asked.
	if _, err := e.FetchClaims(ctx, "q", 1); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("1-entry fpos for a 2-owner round: err = %v, want ErrVerificationFailed", err)
	}
	if _, err := e.FetchExtreme(ctx, "q", protocol.KindMax, 1); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("extreme reply without index shares: err = %v, want ErrVerificationFailed", err)
	}
}

// TestMissingProofIsVerificationFailure: a verification vector that was
// asked for and comes back short or not at all is a server fault — the
// owner fails closed with ErrVerificationFailed, whichever kind asked.
func TestMissingProofIsVerificationFailure(t *testing.T) {
	for _, k := range []OpKind{OpPSI, OpPSICount} {
		for _, mode := range []string{"", "noproof"} {
			if err := execSet(t, mode, k, true); !errors.Is(err, ErrVerificationFailed) {
				t.Errorf("%v, proof %q: err = %v, want ErrVerificationFailed", k, mode, err)
			}
			// Unasked, the same replies are merely answers: no proof is missed.
			if err := execSet(t, mode, k, false); err != nil {
				t.Errorf("unverified %v, proof %q: %v", k, mode, err)
			}
		}
		// To a verified query a short result is a missing proof too.
		if err := execSet(t, "short", k, true); !errors.Is(err, ErrVerificationFailed) {
			t.Errorf("verified %v, short reply: err = %v, want ErrVerificationFailed", k, err)
		}
	}
	e := shapeOwner(t, "noproof").groups[0]
	if _, err := e.Aggregate(context.Background(), "t", []uint64{1}, []string{"v"}, true, true); !errors.Is(err, ErrVerificationFailed) {
		t.Errorf("aggregation reply without VCounts: err = %v, want ErrVerificationFailed", err)
	}
}

// TestExtremeFetchTamperedShareCaught: a random single-byte share for a
// value reconstructs outside F's image with overwhelming probability.
func TestExtremeFetchTamperedShareCaught(t *testing.T) {
	_, err := shapeOwner(t, "").groups[0].FetchExtreme(context.Background(), "q", protocol.KindMedian, 1)
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
		if err := o.groups[0].SubmitExtreme(ctx, "q", protocol.KindMax, []uint64{uint64(10 + i), 7, uint64(30 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range r.owners {
		if err := o.groups[0].SubmitClaim(ctx, "q", []bool{i == 2, true, i == 0}); err != nil {
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
	q := r.owners[1].groups[0]
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
			_, errF := q.FetchExtreme(ctx, "q", protocol.KindMax, len(cells))
			_, errC := q.FetchClaims(ctx, "q", len(cells))
			if bad := errors.Join(errF, errC); !errors.Is(bad, ErrVerificationFailed) {
				t.Errorf("%s (both servers: %v): fetch err = %v, claims err = %v, want one ErrVerificationFailed", name, both, errF, errC)
			}
		}
	}
	reshape = nil
	oc, err := q.FetchExtreme(ctx, "q", protocol.KindMax, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]uint64{{12}, {7}, {30}}; !reflect.DeepEqual(oc.Values, want) {
		t.Errorf("honest max after hostile replies = %v, want %v", oc.Values, want)
	}
	claims, err := q.FetchClaims(ctx, "q", len(cells))
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
