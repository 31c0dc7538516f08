package serverengine

import (
	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/prg"
	"prism/internal/share"
)

// The per-cell arithmetic of the query handlers, as functions of slices
// alone. Each computes cells [lo, hi) of a window whose share vectors
// are window-relative, in blocks of kernelBlock cells: one owner's slice
// at a time is added into a block accumulator that stays in L1, and the
// block is reduced once — never per owner.
//
// A kernel writes cell i's result to out[i], or to out[pos[i]] when pos
// is non-nil (the server-side permutation applied on the way out, so a
// permuted reply needs no second pass). pos is a bijection, so disjoint
// cell ranges write disjoint outputs.

// kernelBlock cells of uint32 or uint64 partial sums are 4 or 8 KiB.
const kernelBlock = 1024

// psiKernel computes g^((Σ_j shares[j][i] + lift) mod δ) mod η' per cell
// by table lookup (§5.1 Step 2); lift is δ ⊖ A(m), or 0 on the
// verification side. The unreduced sum fits 32 bits because the owner
// count is below δ ≤ 2^16 (params enforces both).
func psiKernel(out []uint64, pos []uint32, shares [][]uint16, lo, hi int, powTab []uint64, md modmath.Mod32, lift uint32) {
	for base := lo; base < hi; base += kernelBlock {
		end := min(base+kernelBlock, hi)
		var acc [kernelBlock]uint32
		sum := acc[:end-base]
		share.SumShares(sum, shares, base, end)
		if pos == nil {
			dst := out[base:end]
			for i, s := range sum {
				dst[i] = powTab[md.Reduce(s+lift)]
			}
			continue
		}
		for i, s := range sum {
			out[pos[base+i]] = powTab[md.Reduce(s+lift)]
		}
	}
}

// psuKernel computes (Σ_j shares[j][i] mod δ) · rand[i] mod δ per cell
// (§7, Equation 18), drawing each block's masks rand[i] ∈ [1, δ-1] from
// g in bulk; g must be positioned at cell lo's mask.
func psuKernel(out []uint16, pos []uint32, shares [][]uint16, lo, hi int, g *prg.PRG, delta uint64, md modmath.Mod32) {
	for base := lo; base < hi; base += kernelBlock {
		end := min(base+kernelBlock, hi)
		var acc [kernelBlock]uint32
		var rnd [kernelBlock]uint16
		sum, masks := acc[:end-base], rnd[:end-base]
		g.FillRange1(masks, delta)
		share.SumShares(sum, shares, base, end)
		if pos == nil {
			dst := out[base:end]
			for i, s := range sum {
				dst[i] = uint16(md.Reduce(md.Reduce(s) * uint32(masks[i])))
			}
			continue
		}
		for i, s := range sum {
			out[pos[base+i]] = uint16(md.Reduce(md.Reduce(s) * uint32(masks[i])))
		}
	}
}

// sumKernel computes out_i = z_i · Σ_j cols[j][i] in F_p per cell — the
// linear rearrangement of Equation 11 (§6.1 Step 4). The owners' shares
// are added lazily (field.AddVecLazy), so a cell costs one canonical
// reduction and one multiplication whatever the owner count.
func sumKernel(out []uint64, cols [][]uint64, z []uint64, lo, hi int) {
	for base := lo; base < hi; base += kernelBlock {
		end := min(base+kernelBlock, hi)
		var acc [kernelBlock]uint64
		sum := acc[:end-base]
		field.AddVecLazy(sum, cols, base, end)
		dst, zb := out[base:end], z[base:end]
		for i, s := range sum {
			dst[i] = field.Mul(field.Reduce(s), zb[i])
		}
	}
}
