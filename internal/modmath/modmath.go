// Package modmath provides 64-bit-safe modular arithmetic, deterministic
// primality testing, prime search, and cyclic-subgroup generator search.
//
// It is the algebraic foundation for Prism's additive group Z_δ and the
// cyclic (sub)group of order δ inside Z*_η used by the PSI construction
// (paper §3.1, §5.1). All operations are valid for moduli up to 2^63-1 and
// never overflow: products go through 128-bit intermediates
// (math/bits.Mul64 / Div64).
package modmath

import (
	"errors"
	"math/bits"
)

// MulMod returns (a*b) mod m using a 128-bit intermediate product.
// m must be nonzero and a, b < m (callers reduce first for speed; the
// function still returns a correct result for any a, b < 2^64 as long as
// the quotient fits, which holds whenever a < m).
func MulMod(a, b, m uint64) uint64 {
	if a >= m {
		a %= m
	}
	if b >= m {
		b %= m
	}
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

// AddMod returns (a+b) mod m without overflow for a, b < m.
func AddMod(a, b, m uint64) uint64 {
	if a >= m {
		a %= m
	}
	if b >= m {
		b %= m
	}
	s := a + b // a,b < m <= 2^63-1 so no overflow
	if s >= m {
		s -= m
	}
	return s
}

// SubMod returns (a-b) mod m for a, b < m.
func SubMod(a, b, m uint64) uint64 {
	if a >= m {
		a %= m
	}
	if b >= m {
		b %= m
	}
	if a >= b {
		return a - b
	}
	return m - b + a
}

// PowMod returns a^e mod m by square-and-multiply.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	a %= m
	var r uint64 = 1
	for e > 0 {
		if e&1 == 1 {
			r = MulMod(r, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return r
}

// InvMod returns the multiplicative inverse of a modulo prime p
// (a^(p-2) mod p). a must be nonzero mod p.
func InvMod(a, p uint64) uint64 {
	return PowMod(a, p-2, p)
}

// mrWitnesses is a deterministic witness set for Miller-Rabin covering
// all 64-bit integers (Sinclair's set).
var mrWitnesses = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for all uint64 n.
func IsPrime(n uint64) bool {
	switch {
	case n < 2:
		return false
	case n < 4:
		return true
	case n%2 == 0:
		return false
	}
	// write n-1 = d * 2^s with d odd
	d := n - 1
	s := 0
	for d%2 == 0 {
		d /= 2
		s++
	}
witness:
	for _, a := range mrWitnesses {
		if a%n == 0 {
			continue
		}
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < s-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// NextPrime returns the smallest prime >= n. It panics only on overflow,
// which cannot happen for n below the largest 64-bit prime.
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}

// ErrNoGroup is returned when no η exists in the searched range for the
// requested subgroup order.
var ErrNoGroup = errors.New("modmath: no suitable cyclic group found")

// FindEta finds the smallest prime η > max(δ, lo) with δ | η-1, i.e. such
// that Z*_η contains a cyclic subgroup of prime order δ. δ must be prime.
func FindEta(delta, lo uint64) (uint64, error) {
	if !IsPrime(delta) {
		return 0, errors.New("modmath: delta must be prime")
	}
	// η = k·δ + 1 for k = 1, 2, ...
	start := uint64(1)
	if lo > delta {
		start = (lo - 1) / delta
	}
	for k := start; k < start+1<<22; k++ {
		eta := k*delta + 1
		if eta <= lo || eta <= delta {
			continue
		}
		if IsPrime(eta) {
			return eta, nil
		}
	}
	return 0, ErrNoGroup
}

// SubgroupGenerator returns a generator g of the (unique) cyclic subgroup
// of order δ inside Z*_η, where δ is prime and δ | η-1. It tries
// h = 2, 3, ... and returns g = h^((η-1)/δ) mod η, the first such g ≠ 1.
func SubgroupGenerator(delta, eta uint64) (uint64, error) {
	if (eta-1)%delta != 0 {
		return 0, errors.New("modmath: delta does not divide eta-1")
	}
	exp := (eta - 1) / delta
	for h := uint64(2); h < eta; h++ {
		g := PowMod(h, exp, eta)
		if g != 1 {
			return g, nil
		}
	}
	return 0, ErrNoGroup
}

// PowTable precomputes t[e] = g^e mod m for e in [0, order). The PSI hot
// loop is a single table lookup per cell instead of a PowMod. m must be
// at most 2^32, so every entry fits its 32-bit cell.
func PowTable(g, order, m uint64) []uint32 {
	if m > 1<<32 {
		panic("modmath: PowTable modulus above 2^32")
	}
	t := make([]uint32, order)
	var cur uint64 = 1 % m
	for e := uint64(0); e < order; e++ {
		t[e] = uint32(cur)
		cur = MulMod(cur, g, m)
	}
	return t
}

// Mod32 reduces 32-bit values by one fixed modulus with two multiplies
// instead of a division (Lemire, Kaser, Kurz: "Faster remainder by
// direct computation"). The per-cell loops over Z_δ keep one per view.
type Mod32 struct {
	d, m uint64 // modulus and ⌈2^64 / d⌉
}

// NewMod32 prepares reduction by d, 0 < d < 2^32.
func NewMod32(d uint64) Mod32 {
	if d == 0 || d >= 1<<32 {
		panic("modmath: Mod32 modulus out of (0, 2^32)")
	}
	return Mod32{d: d, m: ^uint64(0)/d + 1}
}

// Reduce returns a mod d, exact for every 32-bit a.
func (r Mod32) Reduce(a uint32) uint32 {
	hi, _ := bits.Mul64(r.m*uint64(a), r.d)
	return uint32(hi)
}

// Mod64 reduces 64-bit values — products of two 32-bit residues — by one
// fixed modulus below 2^32 with Barrett's method: one high multiply by
// the precomputed ⌊(2^64−1)/d⌋ and one conditional subtraction instead
// of a 128-by-64 division. The owner's per-cell products mod η keep one
// per view.
type Mod64 struct {
	d, m uint64 // modulus and ⌊(2^64−1) / d⌋
}

// NewMod64 prepares reduction by d, 0 < d < 2^32.
func NewMod64(d uint64) Mod64 {
	if d == 0 || d >= 1<<32 {
		panic("modmath: Mod64 modulus out of (0, 2^32)")
	}
	return Mod64{d: d, m: ^uint64(0) / d}
}

// Reduce returns a mod d, exact for every 64-bit a. The estimate
// q = ⌊a·m / 2^64⌋ is ⌊a/d⌋ or one less, because m > 2^64/d − 1 (or
// equals it when d is a power of two) and a < 2^64, so a − q·d < 2d.
func (r Mod64) Reduce(a uint64) uint32 {
	q, _ := bits.Mul64(a, r.m)
	rem := a - q*r.d
	if rem >= r.d {
		rem -= r.d
	}
	return uint32(rem)
}
