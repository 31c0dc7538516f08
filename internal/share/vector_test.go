package share

import (
	"slices"
	"testing"

	"prism/internal/field"
	"prism/internal/prg"
)

// The scalar split loops the block-wise vector splits replaced, kept as
// their reference. They draw from the PRG in the vector splits' order —
// per splitBlock, coefficient row by row (Shamir) or noise vector by
// vector (additive) — so equal seeds must give equal shares.

func refShamirSplitVector(g *prg.PRG, secrets []field.Elem, d, n int) [][]field.Elem {
	out := make([][]field.Elem, n)
	for φ := range out {
		out[φ] = make([]field.Elem, len(secrets))
	}
	for base := 0; base < len(secrets); base += splitBlock {
		m := min(splitBlock, len(secrets)-base)
		coeffs := make([][]field.Elem, m)
		for i := range coeffs {
			coeffs[i] = make([]field.Elem, d+1)
			coeffs[i][0] = field.Reduce(secrets[base+i])
		}
		for k := 1; k <= d; k++ {
			for i := range coeffs {
				coeffs[i][k] = g.Uint64n(field.P)
			}
		}
		for i := range coeffs {
			for x := 1; x <= n; x++ {
				out[x-1][base+i] = evalPoly(coeffs[i], field.Elem(x))
			}
		}
	}
	return out
}

func refAdditiveSplitVector(g *prg.PRG, secrets []uint16, delta uint64, c int) [][]uint16 {
	out := make([][]uint16, c)
	for φ := range out {
		out[φ] = make([]uint16, len(secrets))
	}
	for φ := 0; φ < c-1; φ++ {
		for i := range out[φ] {
			out[φ][i] = uint16(g.Uint64n(delta))
		}
	}
	for i, s := range secrets {
		var sum uint64
		for φ := 0; φ < c-1; φ++ {
			sum += uint64(out[φ][i])
		}
		out[c-1][i] = uint16((uint64(s)%delta + delta - sum%delta) % delta)
	}
	return out
}

var splitLens = []int{0, 1, splitBlock - 1, splitBlock, splitBlock + 1, 3*splitBlock + 5}

func TestShamirSplitVectorMatchesReference(t *testing.T) {
	for _, d := range []int{0, 1, 2, 5} {
		for _, n := range []int{1, 3, 7, 9} { // x = 8, 9 leave the small-multiplier path
			for _, l := range splitLens {
				for _, edge := range []bool{false, true} {
					secrets := make([]field.Elem, l)
					if edge {
						for i := range secrets {
							secrets[i] = ^uint64(0) - uint64(i) // not canonical: must be reduced
						}
					} else {
						testPRG("shamir-secrets").Fill(secrets, field.P)
					}
					got := ShamirSplitVector(testPRG("shamir-diff"), secrets, d, n)
					want := refShamirSplitVector(testPRG("shamir-diff"), secrets, d, n)
					for φ := range want {
						if !slices.Equal(got[φ], want[φ]) {
							t.Fatalf("d=%d n=%d len=%d edge=%v: server %d shares differ from reference", d, n, l, edge, φ)
						}
					}
				}
			}
		}
	}
}

// TestShamirSplitVectorDegree reconstructs from every window of d+1
// consecutive servers: the shares lie on a polynomial of degree d whose
// constant term is the secret.
func TestShamirSplitVectorDegree(t *testing.T) {
	const d, n = 2, 6
	secrets := make([]field.Elem, splitBlock+3)
	testPRG("degree-secrets").Fill(secrets, field.P)
	shares := ShamirSplitVector(testPRG("degree"), secrets, d, n)
	for first := 0; first+d+1 <= n; first++ {
		for i, s := range secrets {
			var acc field.Elem
			for j := first; j <= first+d; j++ { // Lagrange at 0 over x = first+1 .. first+d+1
				num, den := field.Elem(1), field.Elem(1)
				for k := first; k <= first+d; k++ {
					if k != j {
						num = field.Mul(num, field.Neg(field.Elem(k+1)))
						den = field.Mul(den, field.Sub(field.Elem(j+1), field.Elem(k+1)))
					}
				}
				acc = field.Add(acc, field.Mul(shares[j][i], field.Mul(num, field.Inv(den))))
			}
			if acc != s {
				t.Fatalf("servers %d..%d reconstruct cell %d to %d, want %d", first+1, first+d+1, i, acc, s)
			}
		}
	}
}

func TestAdditiveSplitVectorMatchesReference(t *testing.T) {
	for _, delta := range []uint64{3, 113, 65521} {
		for _, c := range []int{2, 3, 9} {
			for _, l := range splitLens {
				for _, edge := range []bool{false, true} {
					secrets := make([]uint16, l)
					if edge {
						for i := range secrets {
							secrets[i] = uint16(delta - 1)
						}
					} else {
						testPRG("additive-secrets").FillUint16(secrets, delta)
					}
					got := AdditiveSplitVector(testPRG("additive-diff"), secrets, delta, c)
					want := refAdditiveSplitVector(testPRG("additive-diff"), secrets, delta, c)
					for φ := range want {
						if !slices.Equal(got[φ], want[φ]) {
							t.Fatalf("δ=%d c=%d len=%d edge=%v: share vector %d differs from reference", delta, c, l, edge, φ)
						}
					}
				}
			}
		}
	}
}

func TestSumShares(t *testing.T) {
	g := testPRG("sum-shares")
	for _, m := range []int{0, 1, 3, 4, 5, 8, 11} {
		shares := make([][]uint16, m)
		for j := range shares {
			shares[j] = make([]uint16, 100)
			g.FillUint16(shares[j], 1<<16)
		}
		acc := make([]uint32, 60)
		for i := range acc {
			acc[i] = uint32(i)
		}
		SumShares(acc, shares, 30, 90)
		for i, got := range acc {
			want := uint32(i)
			for _, sv := range shares {
				want += uint32(sv[30+i])
			}
			if got != want {
				t.Fatalf("m=%d: acc[%d] = %d, want %d", m, i, got, want)
			}
		}
	}
}
