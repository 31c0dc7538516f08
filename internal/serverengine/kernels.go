package serverengine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/prg"
	"prism/internal/protocol"
)

// The per-cell arithmetic of the query handlers. Each kernel reads one
// owner-summed vector — the fetch layer has added the M owners' columns
// already (ownerSum) — and computes cells [lo, hi) of a window whose
// vectors are window-relative, writing cell i's result as cell i of out,
// a reserved vector of the laid reply (transport.Lay): one sequential
// loop, a block of kernelBlock cells at a time computed on the stack and
// put into the frame. A reply permuted by PF_s is no kernel mode; the
// fetch has gathered its cells into reply order already.

// kernelBlock cells are computed per block; a block of PSU masks is
// drawn per PRG call (2 KiB).
const kernelBlock = 1024

// psiKernel computes PSI's cell tab[sum[i]] per cell (§5.1 Step 2),
// where sum[i] = Σ_j A(x_j)_i mod δ and tab is one side's table: one
// load per cell.
func psiKernel(out protocol.Vector[uint32], sum []uint16, lo, hi int, tab []uint32) {
	var blk [kernelBlock]uint32
	for base := lo; base < hi; base += kernelBlock {
		src := sum[base:min(base+kernelBlock, hi)]
		dst := blk[:len(src)]
		for i, s := range src {
			dst[i] = tab[s]
		}
		out.Put(base, dst)
	}
}

// psiTable is powTab rotated by δ ⊖ share: entry s is
// g^((s ⊖ share) mod δ) mod η', the χ side's cell for owner sum s with
// the server's share A(m) as share.
func psiTable(powTab []uint32, share uint64) []uint32 {
	delta := uint64(len(powTab))
	r := (delta - share%delta) % delta
	return slices.Concat(powTab[r:], powTab[:r])
}

// psuKernel computes sum[i] · rand[i] mod δ per cell (§7, Equation 18),
// drawing each block's masks rand[i] ∈ [1, δ-1] from g in bulk; g must be
// positioned at cell lo's mask.
func psuKernel(out protocol.Vector[uint16], sum []uint16, lo, hi int, g *prg.PRG, delta uint64, md modmath.Mod32) {
	var rnd, blk [kernelBlock]uint16
	for base := lo; base < hi; base += kernelBlock {
		src := sum[base:min(base+kernelBlock, hi)]
		masks := rnd[:len(src)]
		g.FillRange1(masks, delta)
		dst := blk[:len(src)]
		for i, s := range src {
			dst[i] = uint16(md.Reduce(uint32(s) * uint32(masks[i])))
		}
		out.Put(base, dst)
	}
}

// sumKernel computes out_i = z_i · sum_i in F_p per cell, sum_i being
// Σ_j col_j,i — the linear rearrangement of Equation 11 (§6.1 Step 4):
// one multiplication per cell whatever the owner count.
func sumKernel(out protocol.Vector[uint64], sum, z []uint64, lo, hi int) {
	var blk [kernelBlock]uint64
	for base := lo; base < hi; base += kernelBlock {
		s := sum[base:min(base+kernelBlock, hi)]
		zb := z[base : base+len(s)]
		dst := blk[:len(s)]
		for i := range dst {
			dst[i] = field.Mul(s[i], zb[i])
		}
		out.Put(base, dst)
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

// psiVector runs psiKernel over the (window-relative) owner sum into
// out on the worker pool, with the χ side's table when subtractM and
// the χ̄ side's (no ⊖A(m), Equation 7) otherwise, and accounts its time.
func (e *Engine) psiVector(out protocol.Vector[uint32], sum []uint16, subtractM bool, stats *protocol.Stats) {
	tab := e.powTab
	if subtractM {
		tab = e.chiTab
	}
	start := time.Now()
	n := len(sum)
	e.parallel(n, func(lo, hi int) { psiKernel(out, sum, lo, hi, tab) })
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += n
}

// psuMasked runs psuKernel into out for the window rg of one reply
// vector; the owner sum is window-relative (position k of the window
// reads sum[k]). Masks are derived per fixed-size block of reply
// positions — stored cells, or positions of the PF_s1-permuted vector —
// from the shared seed and the query id, so both servers produce
// identical rand[] regardless of thread counts or window boundaries;
// boundary blocks fast-forward their stream to the window's first
// position, which makes every window agree cell for cell with the
// one-window reply.
func (e *Engine) psuMasked(out protocol.Vector[uint16], sum []uint16, rg protocol.Range, qid string, stats *protocol.Stats) {
	if rg.Count == 0 {
		return // zero-cell table: rg.End()-1 below would wrap
	}
	delta := e.view.Delta
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
			psuKernel(out, sum, int(lo-rg.Offset), int(hi-rg.Offset), g, delta, e.modDelta)
		}
	})
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += int(rg.Count)
}

// sumColumn fetches the owners' summed shares of col for the stored cells
// in rg and runs sumKernel over them into out: acc_i = S(z_i) · Σ_j
// S(col_i)_j (servers multiply the selector share into the summed column
// shares; degree rises to 2). z is parallel to the window, not the full
// column.
func (e *Engine) sumColumn(out protocol.Vector[uint64], t *tableView, col string, z []uint64, rg protocol.Range, stats *protocol.Stats) error {
	sum, borrowed, err := ownerSum[uint64](e, t, col, rg, nil, nil, stats)
	if err != nil {
		return err
	}
	n := int(rg.Count)
	start := time.Now()
	e.parallel(n, func(lo, hi int) { sumKernel(out, sum, z, lo, hi) })
	if borrowed {
		release(e, sum)
	}
	stats.ComputeNS += time.Since(start).Nanoseconds()
	stats.Cells += n
	return nil
}
