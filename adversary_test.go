package prism

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// tamper wraps a server handler and rewrites selected replies — the
// malicious adversarial model of §3.2 (skip, replace, inject).
func tamper(mutate func(req, reply any) any) func(transport.Handler) transport.Handler {
	return func(inner transport.Handler) transport.Handler {
		return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
			reply, err := inner.Handle(ctx, req)
			if err != nil {
				return nil, err
			}
			if out := mutate(req, reply); out != nil {
				return out, nil
			}
			return reply, nil
		})
	}
}

// wantProductCheck requires err to be the §5.2 product check itself —
// r1·r2 ≢ 1 at some cell (Equations 1 and 10) — and not the shape check
// a tampering test would trip if it dropped the reply's verification
// vector on the way through.
func wantProductCheck(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrVerificationFailed) || !strings.Contains(err.Error(), "fails r1·r2 ≡ 1") {
		t.Fatalf("err = %v, want ErrVerificationFailed from the r1·r2 check", err)
	}
}

// TestMaliciousPSIReplacedCellDetected: server copies cell 0's result
// over cell 1 (the "replace result of i-th shares by j-th" attack of
// §5.2). PSI verification must fail.
func TestMaliciousPSIReplacedCellDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(0, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.PSIReply); ok {
			out := append([]uint32(nil), r.Out...)
			out[1] = out[0]
			return protocol.PSIReply{Out: out, Vout: r.Vout, Stats: r.Stats}
		}
		return nil
	}))
	defer sys.restoreServer(0)
	_, err := sys.PSI(context.Background())
	wantProductCheck(t, err)
}

// TestMaliciousPSIInjectedValueDetected: server forges a cell to claim a
// non-common value is common (fake tuple injection).
func TestMaliciousPSIInjectedValueDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(1, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.PSIReply); ok {
			out := append([]uint32(nil), r.Out...)
			for i := range out {
				out[i] = 1 // force "common" on every cell
			}
			return protocol.PSIReply{Out: out, Vout: r.Vout, Stats: r.Stats}
		}
		return nil
	}))
	defer sys.restoreServer(1)
	_, err := sys.PSI(context.Background())
	wantProductCheck(t, err)
}

// TestMaliciousCountTamperDetected: the count verification (Eq. 1
// alignment) must catch a server permuting/altering the count vector.
func TestMaliciousCountTamperDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(0, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.CountReply); ok {
			out := append([]uint32(nil), r.Out...)
			// Swap two cells: inflates/deflates nothing but moves mass.
			out[0], out[2] = out[2], out[0]
			return protocol.CountReply{Out: out, Vout: r.Vout, Stats: r.Stats}
		}
		return nil
	}))
	defer sys.restoreServer(0)
	_, err := sys.PSICount(context.Background())
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("err = %v, want ErrVerificationFailed", err)
	}
}

// TestMaliciousCountEntryDetectedInEveryKernel: a count reply is
// produced two ways — scattered through PF_s1 when the window is the
// whole table, gathered through PF_s1⁻¹ when it is a proper window — and
// one altered Out entry must trip the Eq. 1 check in both, with one
// server group and with two (the last group's S0 lies).
func TestMaliciousCountEntryDetectedInEveryKernel(t *testing.T) {
	for _, groups := range []int{1, 2} {
		for _, tc := range []struct {
			name   string
			shard  uint64
			offset uint64 // the window whose reply is altered
		}{
			{"whole-table", 0, 0},
			{"second-10-cell-window", 10, 10},
		} {
			t.Run(fmt.Sprintf("groups=%d/%s", groups, tc.name), func(t *testing.T) {
				sys := shapeSystem(t, false, groups, 64, tc.shard)
				orc := loadPlanted(t, sys, plantedCells(sys, 5), 7)
				if cnt, err := sys.PSICount(context.Background()); err != nil || cnt.Count != len(orc.cells) {
					t.Fatalf("honest count = %+v, %v, want %d", cnt, err, len(orc.cells))
				}
				sys.interceptGroupServer(groups-1, 0, tamper(func(req, reply any) any {
					r, ok := reply.(protocol.CountReply)
					if !ok || req.(protocol.CountRequest).Shard.Offset != tc.offset {
						return nil
					}
					out := append([]uint32(nil), r.Out...)
					out[3]++
					return protocol.CountReply{Out: out, Vout: r.Vout, Stats: r.Stats}
				}))
				_, err := sys.PSICount(context.Background())
				wantProductCheck(t, err)
			})
		}
	}
}

// TestMaliciousPSIProofEntryDetected: the verification vector rides the
// PSI reply, so a server can lie in it as well as in the result. One
// altered Vout entry — on the whole-table plan and in the second window
// of a 10-cell plan, with one server group and with two (the last
// group's S1 lies) — must fail Equation 10, not pass as an answer.
func TestMaliciousPSIProofEntryDetected(t *testing.T) {
	for _, groups := range []int{1, 2} {
		for _, tc := range []struct {
			name   string
			shard  uint64
			offset uint64 // the window whose reply is altered
		}{
			{"whole-table", 0, 0},
			{"second-10-cell-window", 10, 10},
		} {
			t.Run(fmt.Sprintf("groups=%d/%s", groups, tc.name), func(t *testing.T) {
				sys := shapeSystem(t, false, groups, 64, tc.shard)
				orc := loadPlanted(t, sys, plantedCells(sys, 5), 7)
				if res, err := sys.PSI(context.Background()); err != nil || len(res.Cells) != len(orc.cells) {
					t.Fatalf("honest PSI = %+v, %v, want %d cells", res, err, len(orc.cells))
				}
				sys.interceptGroupServer(groups-1, 1, tamper(func(req, reply any) any {
					r, ok := reply.(protocol.PSIReply)
					if !ok || req.(protocol.PSIRequest).Shard.Offset != tc.offset {
						return nil
					}
					vout := append([]uint32(nil), r.Vout...)
					vout[3]++
					return protocol.PSIReply{Out: r.Out, Vout: vout, Stats: r.Stats}
				}))
				_, err := sys.PSI(context.Background())
				wantProductCheck(t, err)
			})
		}
	}
}

// TestMaliciousOutOfGroupCellsDetected: PSI and count cells are 32-bit,
// so the widest value a server can inject is math.MaxUint32 — not a
// group element and above η'. A server that answers a verified PSI or a
// verified count with every Out cell at that value, in one window of a
// 10-cell plan with one server group and with two (the last group's S0
// lies), fails the r1·r2 ≡ 1 check rather than producing an answer.
// (Every cell, not one: MaxUint32 mod η is a group element, so it is the
// honest value at any cell where out¹ already has that residue.)
func TestMaliciousOutOfGroupCellsDetected(t *testing.T) {
	ctx := context.Background()
	for _, groups := range []int{1, 2} {
		sys := shapeSystem(t, false, groups, 64, 10)
		loadPlanted(t, sys, plantedCells(sys, 5), 7)
		for kind, run := range map[string]func() error{
			"psi":   func() error { _, err := sys.PSI(ctx); return err },
			"count": func() error { _, err := sys.PSICount(ctx); return err },
		} {
			t.Run(fmt.Sprintf("groups=%d/%s", groups, kind), func(t *testing.T) {
				if err := run(); err != nil {
					t.Fatalf("honest %s: %v", kind, err)
				}
				hostile := func(out []uint32) []uint32 {
					out = append([]uint32(nil), out...)
					for i := range out {
						out[i] = math.MaxUint32
					}
					return out
				}
				sys.interceptGroupServer(groups-1, 0, tamper(func(req, reply any) any {
					switch r := reply.(type) {
					case protocol.PSIReply:
						if req.(protocol.PSIRequest).Shard.Offset == 10 {
							return protocol.PSIReply{Out: hostile(r.Out), Vout: r.Vout, Stats: r.Stats}
						}
					case protocol.CountReply:
						if req.(protocol.CountRequest).Shard.Offset == 10 {
							return protocol.CountReply{Out: hostile(r.Out), Vout: r.Vout, Stats: r.Stats}
						}
					}
					return nil
				}))
				defer sys.restoreGroupServer(groups-1, 0)
				wantProductCheck(t, run())
			})
		}
	}
}

// TestStrippedProofDetected: a server that answers a verified query but
// leaves the verification vector out has not answered it. For PSI, count
// and sum, with one server group and with two (the last group's S1
// strips), the owner fails closed with ErrVerificationFailed.
func TestStrippedProofDetected(t *testing.T) {
	ctx := context.Background()
	for _, groups := range []int{1, 2} {
		sys := shapeSystem(t, false, groups, 64, 10)
		loadPlanted(t, sys, plantedCells(sys, 5), 7) // the last cell of the domain is planted
		for kind, run := range map[string]func() error{
			"psi":   func() error { _, err := sys.PSI(ctx); return err },
			"count": func() error { _, err := sys.PSICount(ctx); return err },
			"sum":   func() error { _, err := sys.PSISum(ctx, "v"); return err },
		} {
			if err := run(); err != nil {
				t.Fatalf("groups=%d: honest %s: %v", groups, kind, err)
			}
			var stripped atomic.Int64 // windows arrive concurrently
			sys.interceptGroupServer(groups-1, 1, tamper(func(req, reply any) any {
				switch r := reply.(type) {
				case protocol.PSIReply:
					if kind == "psi" {
						stripped.Add(1)
						return protocol.PSIReply{Out: r.Out, Stats: r.Stats}
					}
				case protocol.CountReply:
					stripped.Add(1)
					return protocol.CountReply{Out: r.Out, Stats: r.Stats}
				case protocol.AggReply:
					stripped.Add(1)
					return protocol.AggReply{Sums: r.Sums, Stats: r.Stats}
				}
				return nil
			}))
			if err := run(); !errors.Is(err, ErrVerificationFailed) || stripped.Load() == 0 {
				t.Errorf("groups=%d: %s with the proof stripped (%d replies): err = %v, want ErrVerificationFailed", groups, kind, stripped.Load(), err)
			}
			sys.restoreGroupServer(groups-1, 1)
		}
	}
}

// TestMaliciousAggTamperDetected: a server that fabricates aggregation
// shares must trip the dual-copy sum verification.
func TestMaliciousAggTamperDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(2, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.AggReply); ok {
			for col, v := range r.Sums {
				vv := append([]uint64(nil), v...)
				vv[0] += 17 // nudge one share
				r.Sums[col] = vv
			}
			return r
		}
		return nil
	}))
	defer sys.restoreServer(2)
	_, err := sys.PSISum(context.Background(), "cost")
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("err = %v, want ErrVerificationFailed", err)
	}
}

// TestMaliciousAggSkipDetected: a lazy server reuses cell 0's share for
// every cell (skipping work). The independently-permuted verification
// copy cannot stay consistent.
func TestMaliciousAggSkipDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(0, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.AggReply); ok {
			for col, v := range r.Sums {
				vv := make([]uint64, len(v))
				for i := range vv {
					vv[i] = v[0]
				}
				r.Sums[col] = vv
			}
			return r
		}
		return nil
	}))
	defer sys.restoreServer(0)
	_, err := sys.PSISum(context.Background(), "cost")
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("err = %v, want ErrVerificationFailed", err)
	}
}

// TestMaliciousExtremeValueDetected: tampering the announced max so that
// it decodes below an owner's own value must be caught by the local
// consistency check.
func TestMaliciousExtremeValueDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(0, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.ExtremeFetchReply); ok && r.Ready {
			// Zero this server's value share: the reconstructed masked
			// value becomes the other share alone — effectively random.
			vs := make([][]byte, len(r.ValueShares))
			for i := range vs {
				vs[i] = []byte{0}
			}
			return protocol.ExtremeFetchReply{Ready: true, ValueShares: vs, IndexShares: r.IndexShares}
		}
		return nil
	}))
	defer sys.restoreServer(0)
	_, err := sys.PSIMax(context.Background(), "age")
	if err == nil {
		t.Fatal("tampered max accepted")
	}
}

// TestMaliciousClaimForgeryDetected: a server fabricating fpos shares
// produces non-bit reconstructions with overwhelming probability.
func TestMaliciousClaimForgeryDetected(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(1, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.ClaimFetchReply); ok && r.Ready {
			fp := append([]uint16(nil), r.Fpos...)
			for i := range fp {
				fp[i] = uint16((uint64(fp[i]) + 7) % 113)
			}
			return protocol.ClaimFetchReply{Ready: true, Fpos: fp}
		}
		return nil
	}))
	defer sys.restoreServer(1)
	_, err := sys.PSIMax(context.Background(), "age")
	if err == nil {
		t.Fatal("forged claims accepted")
	}
}

// TestMaliciousExtremeVectorEntryDetected: a server that rewrites exactly
// one entry of one k-vector reply of a max query — one cell's value
// share, one cell's winner-index share, one owner's claim share for one
// cell — or only one group's round of a two-group query, is caught with
// ErrVerificationFailed; the honest entries of the sibling cells in the
// same reply do not mask it.
//
// A zeroed value share reconstructs to a random point of Z_Q: outside F's
// image, or decoding below some owner's own maximum, or above every
// owner's so that the announced winner cannot claim it. A shifted index
// share names a slot out of range or an owner that does not hold the
// maximum (the planted values are distinct). A shifted claim share
// reconstructs to something that is not a bit.
func TestMaliciousExtremeVectorEntryDetected(t *testing.T) {
	const cell = 1 // the tampered entry's cell index; its neighbours stay honest
	tampers := map[string]func(reply any) any{
		"one value share": func(reply any) any {
			r, ok := reply.(protocol.ExtremeFetchReply)
			if !ok || !r.Ready {
				return nil
			}
			r.ValueShares = append([][]byte(nil), r.ValueShares...)
			r.ValueShares[cell] = []byte{0}
			return r
		},
		"one index share": func(reply any) any {
			r, ok := reply.(protocol.ExtremeFetchReply)
			if !ok || !r.Ready {
				return nil
			}
			r.IndexShares = append([]uint16(nil), r.IndexShares...)
			r.IndexShares[cell] = (r.IndexShares[cell] + 1) % 113
			return r
		},
		"one fpos entry": func(reply any) any {
			r, ok := reply.(protocol.ClaimFetchReply)
			if !ok || !r.Ready {
				return nil
			}
			r.Fpos = append([]uint16(nil), r.Fpos...)
			k := len(r.Fpos) / 3 // owner 2's share for the cell
			r.Fpos[2*k+cell] = (r.Fpos[2*k+cell] + 7) % 113
			return r
		},
	}
	for _, groups := range []int{1, 2} {
		for name, mutate := range tampers {
			t.Run(fmt.Sprintf("groups=%d/%s", groups, name), func(t *testing.T) {
				sys, err := NewLocalSystem(extremeConfig(t, 3, groups, false))
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				// Six cells: with two groups each round carries three, and only
				// the last group's server lies — group 0's round stays honest.
				orc := loadPlanted(t, sys, plantedCells(sys, 6), 23)
				sys.interceptGroupServer(groups-1, 0, tamper(func(_, reply any) any { return mutate(reply) }))
				if _, err := sys.PSIMax(context.Background(), "v"); !errors.Is(err, ErrVerificationFailed) {
					t.Fatalf("err = %v, want ErrVerificationFailed", err)
				}
				assertNoSessions(t, sys)
				sys.restoreGroupServer(groups-1, 0)
				res, err := sys.PSIMax(context.Background(), "v")
				if err != nil {
					t.Fatalf("honest run after restore: %v", err)
				}
				orc.check(t, protocol.KindMax, res)
			})
		}
	}
}

// TestHonestRunStillVerifies: with interception removed, everything
// passes again (no false positives after restore).
func TestHonestRunStillVerifies(t *testing.T) {
	sys := hospitalSystem(t, true)
	sys.interceptServer(0, tamper(func(req, reply any) any {
		if r, ok := reply.(protocol.PSIReply); ok {
			out := append([]uint32(nil), r.Out...)
			out[0] = 99
			return protocol.PSIReply{Out: out, Vout: r.Vout, Stats: r.Stats}
		}
		return nil
	}))
	_, err := sys.PSI(context.Background())
	wantProductCheck(t, err)
	sys.restoreServer(0)
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatalf("honest run fails after restore: %v", err)
	}
	if len(res.Values) != 1 || res.Values[0] != "Cancer" {
		t.Fatalf("honest result wrong: %v", res.Values)
	}
}
