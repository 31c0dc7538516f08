package share

import (
	"fmt"

	"prism/internal/field"
	"prism/internal/prg"
)

// ShamirSplit shares secret s under a random degree-d polynomial over
// F_p, evaluated at x = 1..n. Requires n > d (otherwise the secret is
// unrecoverable) — Prism uses d=1, n=3 so a product of two shares
// (degree 2) is still recoverable from the same three servers (§3.2).
func ShamirSplit(g *prg.PRG, s field.Elem, d, n int) []field.Elem {
	if n <= d {
		panic(fmt.Sprintf("share: %d shares cannot recover degree-%d polynomial", n, d))
	}
	coeffs := make([]field.Elem, d+1)
	coeffs[0] = field.Reduce(s)
	for i := 1; i <= d; i++ {
		coeffs[i] = field.Reduce(g.Uint64())
	}
	out := make([]field.Elem, n)
	for x := 1; x <= n; x++ {
		out[x-1] = evalPoly(coeffs, field.Elem(x))
	}
	return out
}

// evalPoly evaluates the polynomial at x via Horner's rule.
func evalPoly(coeffs []field.Elem, x field.Elem) field.Elem {
	var acc field.Elem
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, x), coeffs[i])
	}
	return acc
}

// LagrangeWeights returns w_j such that f(0) = Σ_j w_j · f(x_j) for the
// evaluation points x = 1..n. Used by DB owners in "final processing"
// (paper §3.3 Phase 4).
func LagrangeWeights(n int) []field.Elem {
	w := make([]field.Elem, n)
	for j := 1; j <= n; j++ {
		num, den := field.Elem(1), field.Elem(1)
		for k := 1; k <= n; k++ {
			if k == j {
				continue
			}
			num = field.Mul(num, field.Neg(field.Elem(k)))                // (0 - x_k)
			den = field.Mul(den, field.Sub(field.Elem(j), field.Elem(k))) // (x_j - x_k)
		}
		w[j-1] = field.Mul(num, field.Inv(den))
	}
	return w
}

// ShamirReconstruct recovers f(0) from shares at x = 1..len(shares).
func ShamirReconstruct(shares []field.Elem) field.Elem {
	w := LagrangeWeights(len(shares))
	return ShamirReconstructWith(shares, w)
}

// ShamirReconstructWith recovers f(0) with precomputed Lagrange weights.
func ShamirReconstructWith(shares, weights []field.Elem) field.Elem {
	var acc field.Elem
	for j, s := range shares {
		acc = field.Add(acc, field.Mul(weights[j], s))
	}
	return acc
}

// splitBlock is how many cells the vector splits draw and evaluate at a
// time: the block's random vectors stay in L1 while every server's
// shares are computed from them.
const splitBlock = 512

// ShamirSplitVector shares each secret in secrets; result[φ][i] is server
// φ's share (evaluation at x=φ+1) of secrets[i]. Unlike ShamirSplit it
// deliberately accepts n ≤ d: a caller that needs only some servers'
// points (the benchmark's store probe asks for server 0's alone) gets
// exactly those, and reconstruction is then not its concern.
//
// Each block draws its d coefficient vectors with one bulk fill apiece
// and evaluates every server point by Horner steps streamed over the
// block, so the cost per cell is one draw and one small multiply-add
// per coefficient and server.
func ShamirSplitVector(g *prg.PRG, secrets []field.Elem, d, n int) [][]field.Elem {
	out := make([][]field.Elem, n)
	for φ := range out {
		out[φ] = make([]field.Elem, len(secrets))
	}
	// Row k holds the block's coefficients of x^(k+1). With d = 0 the one
	// row is never filled and stays zero: the polynomial is the constant.
	rows := max(d, 1)
	coef := make([]field.Elem, rows*splitBlock)
	for base := 0; base < len(secrets); base += splitBlock {
		m := min(splitBlock, len(secrets)-base)
		for k := 0; k < d; k++ {
			g.Fill(coef[k*splitBlock:][:m], field.P)
		}
		for φ := range out {
			x, dst := field.Elem(φ+1), out[φ][base:base+m]
			src := coef[(rows-1)*splitBlock:][:m]
			for k := rows - 2; k >= 0; k-- {
				field.MulAddVec(dst, src, x, coef[k*splitBlock:][:m])
				src = dst
			}
			field.MulAddVec(dst, src, x, secrets[base:base+m])
		}
	}
	return out
}

// ShamirSplitBits is ShamirSplitVector(g, secrets, 1, 3) over the cells
// from, from+1, …, from+n−1 of a 0/1 secret vector held as a bitmap —
// cell c is bit c%64 of bits[c/64] — without building a vector of
// secrets or shares: put(φ, i, shares) gets server φ's shares of the
// cells from+i, from+i+1, … a block at a time, in a buffer it must not
// keep. The draws from g are ShamirSplitVector's, so consecutive calls
// over consecutive runs of cells give the shares one call over all of
// them would.
func ShamirSplitBits(g *prg.PRG, bits []uint64, from uint64, n int, put func(phi, i int, shares []field.Elem)) {
	var coef, secrets, shares [splitBlock]field.Elem
	for base := 0; base < n; base += splitBlock {
		m := min(splitBlock, n-base)
		g.Fill(coef[:m], field.P)
		for i := range secrets[:m] {
			c := from + uint64(base+i)
			secrets[i] = bits[c/64] >> (c % 64) & 1
		}
		for φ := 0; φ < 3; φ++ {
			field.MulAddVec(shares[:m], coef[:m], field.Elem(φ+1), secrets[:m])
			put(φ, base, shares[:m])
		}
	}
}

// ShamirReconstructVector recovers each position from n share vectors.
func ShamirReconstructVector(shares [][]field.Elem) []field.Elem {
	if len(shares) == 0 {
		return nil
	}
	w := LagrangeWeights(len(shares))
	out := make([]field.Elem, len(shares[0]))
	for i := range out {
		var acc field.Elem
		for φ := range shares {
			acc = field.Add(acc, field.Mul(w[φ], shares[φ][i]))
		}
		out[i] = acc
	}
	return out
}
