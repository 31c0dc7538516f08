// Package share implements the three secret-sharing schemes Prism builds
// on (paper §3.1):
//
//   - additive secret sharing over the Abelian group Z_δ (this file),
//     used for the χ bitmaps of PSI/PSU;
//   - Shamir's secret sharing over F_p (shamir.go), used for aggregation
//     columns where shares must be multiplied;
//   - additive sharing over a large prime modulus Q held as big.Int
//     (big.go), used for the order-preserving max/median values.
package share

import (
	"fmt"

	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/prg"
)

// AdditiveSplit splits secret s ∈ Z_delta into c shares whose sum is
// s mod delta. The first c-1 shares are uniform; the last is the
// correction term, so any c-1 shares are independent of the secret.
func AdditiveSplit(g *prg.PRG, s uint64, delta uint64, c int) []uint16 {
	if delta < 2 || delta > 1<<16 {
		panic(fmt.Sprintf("share: delta %d out of range (2, 65536]", delta))
	}
	if c < 2 {
		panic("share: need at least 2 additive shares")
	}
	out := make([]uint16, c)
	var sum uint64
	for i := 0; i < c-1; i++ {
		v := g.Uint64n(delta)
		out[i] = uint16(v)
		sum += v
	}
	out[c-1] = uint16((s%delta + delta - sum%delta) % delta)
	return out
}

// AdditiveReconstruct adds shares mod delta.
func AdditiveReconstruct(shares []uint16, delta uint64) uint64 {
	var sum uint64
	for _, v := range shares {
		sum += uint64(v)
	}
	return sum % delta
}

// AdditiveSplitVector splits each element of secrets into c share vectors:
// result[φ][i] is server φ's share of secrets[i]. Secrets must already be
// reduced mod delta (bits 0/1 for χ tables trivially are).
func AdditiveSplitVector(g *prg.PRG, secrets []uint16, delta uint64, c int) [][]uint16 {
	if c < 2 || c > 1<<15 {
		panic("share: additive share count out of [2, 32768]")
	}
	out := make([][]uint16, c)
	for φ := range out {
		out[φ] = make([]uint16, len(secrets))
	}
	// Fill the first c-1 share vectors with uniform noise, then correct:
	// last = s + (c-1)·δ − Σ noise, positive and below 2^32, reduced once.
	noise, last := out[:c-1], out[c-1]
	for _, v := range noise {
		g.FillUint16(v, delta)
	}
	md := modmath.NewMod32(delta)
	lift := uint32(c-1) * uint32(delta)
	var sum [splitBlock]uint64
	for base := 0; base < len(secrets); base += splitBlock {
		m := min(splitBlock, len(secrets)-base)
		clear(sum[:m])
		field.AddVecLazy(sum[:m], noise, base, base+m) // exact: 16-bit sources
		for i, s := range secrets[base : base+m] {
			last[base+i] = uint16(md.Reduce(uint32(s) + lift - uint32(sum[i])))
		}
	}
	return out
}

// AdditiveReconstructVector adds share vectors pointwise mod delta into a
// fresh slice.
func AdditiveReconstructVector(shares [][]uint16, delta uint64) []uint16 {
	if len(shares) == 0 {
		return nil
	}
	n := len(shares[0])
	out := make([]uint16, n)
	for i := 0; i < n; i++ {
		var sum uint64
		for φ := range shares {
			sum += uint64(shares[φ][i])
		}
		out[i] = uint16(sum % delta)
	}
	return out
}
