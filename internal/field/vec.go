package field

import "math/bits"

// Lazy reduction. Fold(x) ≡ x (mod P) and Fold(x) ≤ P+7 for every
// 64-bit x, so a folded value plus up to seven canonical elements is at
// most (P+7) + 7(P−1) = 8P = 2^64−8 and plain integer additions cannot
// overflow; an eighth could. The vector loops below fold an accumulator
// as they add to it and leave the one canonical Reduce to the caller.

// Fold maps x to a congruent value of at most P+7, without a branch.
func Fold(x uint64) uint64 { return (x & P) + (x >> 61) }

// AddVecLazy adds each srcs[j][lo:hi] into acc, four slices to a pass so
// acc is loaded and stored once per four addends: every pass folds acc
// and adds at most four canonical elements (≤ 5P+3, far from overflow).
// acc may start at any values and ends congruent to the sum, unreduced —
// Reduce it once. Sources must be canonical. 16-bit sources are added
// without the fold: acc ends as the exact integer sum (the caller keeps
// it below 2^64), ready to be reduced by another modulus.
func AddVecLazy[S ~uint16 | ~uint64](acc []uint64, srcs [][]S, lo, hi int) {
	acc = acc[:hi-lo]
	exact := uint64(^S(0)) == 1<<16-1
	j := 0
	for ; j+4 <= len(srcs); j += 4 {
		a, b, c, d := srcs[j][lo:hi], srcs[j+1][lo:hi], srcs[j+2][lo:hi], srcs[j+3][lo:hi]
		a, b, c, d = a[:len(acc)], b[:len(acc)], c[:len(acc)], d[:len(acc)]
		if exact {
			for i, s := range acc {
				acc[i] = s + uint64(a[i]) + uint64(b[i]) + uint64(c[i]) + uint64(d[i])
			}
			continue
		}
		for i, s := range acc {
			acc[i] = Fold(s) + uint64(a[i]) + uint64(b[i]) + uint64(c[i]) + uint64(d[i])
		}
	}
	for ; j < len(srcs); j++ {
		a := srcs[j][lo:hi]
		a = a[:len(acc)]
		if exact {
			for i, s := range acc {
				acc[i] = s + uint64(a[i])
			}
			continue
		}
		for i, s := range acc {
			acc[i] = Fold(s) + uint64(a[i])
		}
	}
}

// MulAddVec sets dst[i] = src[i]·x + a[i] mod P: one Horner step of a
// polynomial evaluation at x, streamed over a vector. src must be
// canonical and may be dst itself; a may hold any 64-bit values. For the
// small x Shamir uses (x ≤ 7: src·x + Fold(a) ≤ 7(P−1) + P+7 = 8P fits
// 64 bits) a step is one integer multiply-add and one reduce.
func MulAddVec(dst, src []Elem, x Elem, a []uint64) {
	src, a = src[:len(dst)], a[:len(dst)]
	if x <= 7 {
		for i := range dst {
			dst[i] = Reduce(src[i]*x + Fold(a[i]))
		}
		return
	}
	for i := range dst {
		dst[i] = Add(Mul(src[i], x), Reduce(a[i]))
	}
}

// MulAdd128 adds the full product a·b to the 128-bit accumulator hi:lo.
// Products of a canonical element and any 64-bit value are below 2^125,
// so seven of them accumulate without overflow before one Reduce128.
func MulAdd128(hi, lo uint64, a Elem, b uint64) (uint64, uint64) {
	h, l := bits.Mul64(a, b)
	lo, c := bits.Add64(lo, l, 0)
	hi, _ = bits.Add64(hi, h, c)
	return hi, lo
}

// Reduce128 maps hi·2^64 + lo into [0, P), using 2^64 ≡ 8 and
// 2^61 ≡ 1 (mod P).
func Reduce128(hi, lo uint64) Elem {
	return Reduce((lo & P) + (lo >> 61) + (hi << 3 & P) + (hi >> 58))
}
