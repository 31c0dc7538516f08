package serverengine

import (
	"fmt"
	"sync"
	"time"

	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
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
func psiKernel(out []uint32, pos []uint32, shares [][]uint16, lo, hi int, powTab []uint32, md modmath.Mod32, lift uint32) {
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

// ---- kernel drivers ----
//
// psiVector, psuMasked and sumColumn run the kernels above on the worker
// pool and account their time into the request's Stats.

// psuBlock is the fixed cell-block size for PSU mask derivation. Both
// servers derive rand[] per block from the shared seed, so the stream is
// identical regardless of each server's thread count.
const psuBlock = 1 << 16

// parallel splits [0, n) into contiguous chunks across the worker pool.
// The width is sampled once per loop, so SetThreads during a query is
// race-free and only affects subsequent loops.
func (e *Engine) parallel(n int, fn func(lo, hi int)) {
	threads := int(e.threads.Load())
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// psiVector runs psiKernel over the (window-relative) share vectors on
// the worker pool and accounts its time. A non-nil scatter is the server
// permutation of a whole-table reply: cell i's value lands at scatter[i].
func (e *Engine) psiVector(shares [][]uint16, subtractM bool, scatter perm.Perm, stats *protocol.Stats) []uint32 {
	var lift uint32
	if subtractM {
		lift = uint32(e.view.Delta - uint64(e.view.MShare)%e.view.Delta)
	}
	start := time.Now()
	n := len(shares[0])
	out := make([]uint32, n)
	e.parallel(n, func(lo, hi int) {
		psiKernel(out, scatter, shares, lo, hi, e.powTab, e.modDelta, lift)
	})
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += n
	return out
}

// psuMasked runs psuKernel for the window rg of one reply vector; the
// share vectors are window-relative (position k of the window reads
// shares[j][k]). Masks are derived per fixed-size block of positions —
// in whatever space rg names — from the shared seed and the query id,
// so both servers produce identical rand[] regardless of thread counts
// or window boundaries; boundary blocks fast-forward their stream to the
// window's first position, which makes stored-order windows agree cell
// for cell with the one-window reply. A non-nil scatter permutes a
// whole-table reply on the way out: its masks follow the stored cells,
// which both servers walk in the same order, so only the zero pattern
// is comparable with a gathered window's.
func (e *Engine) psuMasked(shares [][]uint16, rg protocol.Range, qid string, scatter perm.Perm, stats *protocol.Stats) []uint16 {
	delta := e.view.Delta
	out := make([]uint16, rg.Count)
	if rg.Count == 0 {
		return out // zero-cell table: rg.End()-1 below would wrap
	}
	start := time.Now()
	firstBlk := int(rg.Offset / psuBlock)
	lastBlk := int((rg.End() - 1) / psuBlock)
	e.parallel(lastBlk-firstBlk+1, func(blo, bhi int) {
		var skipped [kernelBlock]uint16
		for blk := firstBlk + blo; blk < firstBlk+bhi; blk++ {
			blkStart := uint64(blk) * psuBlock
			lo, hi := max(blkStart, rg.Offset), min(blkStart+psuBlock, rg.End())
			g := prg.New(e.view.PSUSeed.Derive(fmt.Sprintf("psu/%s/%d", qid, blk)))
			for skip := lo - blkStart; skip > 0; { // fast-forward the block stream to lo
				n := min(skip, kernelBlock)
				g.FillRange1(skipped[:n], delta)
				skip -= n
			}
			psuKernel(out, scatter, shares, int(lo-rg.Offset), int(hi-rg.Offset), g, delta, e.modDelta)
		}
	})
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += int(rg.Count)
	return out
}

// sumColumn fetches every owner's shares of col for the stored cells in
// rg and runs sumKernel over them: acc_i = S(z_i) · Σ_j S(col_i)_j
// (servers multiply the selector share into the summed column shares;
// degree rises to 2). z is parallel to the window, not the full column;
// only the chunks overlapping the window are fetched.
func (e *Engine) sumColumn(t *tableView, col string, z []uint64, rg protocol.Range, stats *protocol.Stats) ([]uint64, error) {
	cols, release, err := ownerWindows[uint64](e, t, col, rg, stats)
	if err != nil {
		return nil, err
	}
	n := int(rg.Count)
	acc := make([]uint64, n)
	start := time.Now()
	e.parallel(n, func(lo, hi int) { sumKernel(acc, cols, z, lo, hi) })
	release()
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += n
	return acc, nil
}
