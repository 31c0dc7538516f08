// Package opoly implements the initiator's order-preserving polynomial
// F(x) = a_{m+1}·x^{m+1} + ... + a_1·x + a_0 with all a_i > 0 (paper §4).
//
// F is strictly increasing on non-negative integers, so given the secret
// maximum M_i, the masked value v_i = F(M_i) + r_i with
// r_i ∈ [0, F(M_i+1) − F(M_i)) preserves order across owners while hiding
// M_i: recovering M from v requires knowing all coefficients, and the
// degree exceeds the number of owners m, so m observed evaluations cannot
// interpolate it (the SSS-style argument of §4(i)).
//
// Values grow like M^(m+1), far past 64 bits, so everything is math/big.
package opoly

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"prism/internal/prg"
)

// Poly is an order-preserving polynomial with positive coefficients.
// Coeffs[i] is the coefficient of x^i; all entries are >= 1.
type Poly struct {
	Coeffs []*big.Int
}

// New generates a polynomial of degree m+1 with positive coefficients
// drawn from [1, coefBound] using the PRG. m is the number of DB owners.
func New(g *prg.PRG, m int, coefBound uint64) (*Poly, error) {
	if m < 1 {
		return nil, errors.New("opoly: need at least one owner")
	}
	if coefBound < 1 {
		return nil, errors.New("opoly: coefficient bound must be >= 1")
	}
	coeffs := make([]*big.Int, m+2) // degree m+1 → m+2 coefficients
	for i := range coeffs {
		coeffs[i] = new(big.Int).SetUint64(1 + g.Uint64n(coefBound))
	}
	return &Poly{Coeffs: coeffs}, nil
}

// Degree returns the polynomial degree (m+1).
func (p *Poly) Degree() int { return len(p.Coeffs) - 1 }

// Eval returns F(x) for x >= 0.
func (p *Poly) Eval(x uint64) *big.Int {
	bx := new(big.Int).SetUint64(x)
	acc := new(big.Int)
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, bx)
		acc.Add(acc, p.Coeffs[i])
	}
	return acc
}

// Gap returns F(x+1) − F(x), the width of the randomisation interval for
// the masked value at x. Always positive because coefficients are positive.
func (p *Poly) Gap(x uint64) *big.Int {
	return new(big.Int).Sub(p.Eval(x+1), p.Eval(x))
}

// Mask returns v = F(x) + r with r uniform in [0, Gap(x)), drawn from the
// PRG. The result satisfies F(x) <= v < F(x+1), the exact condition that
// makes masked values order-preserving and distinct w.h.p. (§6.3 Step 3).
func (p *Poly) Mask(g *prg.PRG, x uint64) *big.Int {
	gap := p.Gap(x)
	r := randBelow(g, gap)
	return r.Add(r, p.Eval(x))
}

// randBelow draws a uniform big.Int in [0, bound) from the PRG.
func randBelow(g *prg.PRG, bound *big.Int) *big.Int {
	if bound.Sign() <= 0 {
		return new(big.Int)
	}
	bits := bound.BitLen()
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	mask := byte(0xff >> (uint(bytes*8 - bits)))
	for {
		g.Bytes(buf)
		buf[0] &= mask
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(bound) < 0 {
			return v
		}
	}
}

// SearchZ finds the unique z with F(z) <= v < F(z+1), or an error if
// v < F(0) (which means v is not in the image interval of any
// non-negative integer — the max-verification structural check) or
// v >= F(hi+1) (outside the declared domain: z may be at most hi, e.g.
// the declared aggregation bound).
//
// It starts from root's float estimate of z and confirms it with exact
// evaluations: two when the estimate is right, and when it misses by e,
// O(log e) more — steps doubling away from it bracket z, and a binary
// search inside the bracket finds it — instead of log₂(hi).
func (p *Poly) SearchZ(v *big.Int, hi uint64) (uint64, error) {
	if v.Cmp(p.Eval(0)) < 0 {
		return 0, fmt.Errorf("opoly: value below F(0), not a valid masked value")
	}
	// invariant: F(lo) <= v, and z <= up
	lo, up := uint64(0), hi
	if g := min(p.root(v), hi); v.Cmp(p.Eval(g)) >= 0 {
		lo = g
		for step := uint64(1); lo < up; step <<= 1 {
			next := lo + min(step, up-lo)
			if v.Cmp(p.Eval(next)) < 0 {
				up = next - 1
				break
			}
			lo = next
		}
	} else {
		up = g - 1 // g > 0, since F(0) <= v < F(g)
		for step := uint64(1); lo < up; step <<= 1 {
			next := up - min(step, up-lo)
			if v.Cmp(p.Eval(next)) >= 0 {
				lo = next
				break
			}
			up = next - 1
		}
	}
	for lo < up {
		mid := lo + (up-lo+1)/2
		if v.Cmp(p.Eval(mid)) >= 0 {
			lo = mid
		} else {
			up = mid - 1
		}
	}
	if lo == hi && v.Cmp(p.Eval(hi+1)) >= 0 {
		return 0, fmt.Errorf("opoly: value beyond F(hi+1), outside declared domain")
	}
	return lo, nil
}

// root estimates the real x >= 0 with F(x) = v from F's two leading
// coefficients: for large x, F(x) ≈ a_d·(x + a_{d−1}/(d·a_d))^d. Logs
// keep the degree-d values, far past float64's range, out of the sum.
func (p *Poly) root(v *big.Int) uint64 {
	d := len(p.Coeffs) - 1
	if d < 1 {
		return 0
	}
	top := log2(p.Coeffs[d])
	x := math.Exp2((log2(v)-top)/float64(d)) - math.Exp2(log2(p.Coeffs[d-1])-top)/float64(d)
	switch {
	case !(x > 0): // NaN too
		return 0
	case x >= 0x1p64:
		return math.MaxUint64
	}
	return uint64(x)
}

// log2 is log₂ x to float64 precision, −Inf for x <= 0. It reads x's
// two top words rather than converting the whole of x.
func log2(x *big.Int) float64 {
	if x.Sign() <= 0 {
		return math.Inf(-1)
	}
	w := x.Bits()
	n := len(w) - 1
	f := float64(w[n])
	if n > 0 {
		f += math.Ldexp(float64(w[n-1]), -bits.UintSize)
	}
	return math.Log2(f) + float64(n*bits.UintSize)
}

// MaxMasked returns F(bound+1), a strict upper bound on any masked value
// for x <= bound. The initiator sizes the big share modulus Q above this.
func (p *Poly) MaxMasked(bound uint64) *big.Int {
	return p.Eval(bound + 1)
}
