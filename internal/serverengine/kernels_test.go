package serverengine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
)

// The scalar per-cell loops the kernels replaced, kept as the reference
// the kernels are differentially tested against.

func refPSI(shares [][]uint16, n int, powTab []uint32, delta, mShare uint64) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		var sum uint64
		for _, sv := range shares {
			sum += uint64(sv[i])
		}
		out[i] = powTab[(sum%delta+delta-mShare)%delta]
	}
	return out
}

// refPSU masks cells [lo, hi) with scalar draws from g.
func refPSU(shares [][]uint16, lo, hi int, g *prg.PRG, delta uint64) []uint16 {
	out := make([]uint16, hi-lo)
	for k := lo; k < hi; k++ {
		var sum uint64
		for _, sv := range shares {
			sum += uint64(sv[k])
		}
		out[k-lo] = uint16(sum % delta * g.Range1(delta) % delta)
	}
	return out
}

func refSum(cols [][]uint64, z []uint64) []uint64 {
	out := make([]uint64, len(z))
	for i := range out {
		var s field.Elem
		for _, cv := range cols {
			s = field.Add(s, cv[i])
		}
		out[i] = field.Mul(s, z[i])
	}
	return out
}

// refPSUWindow is the old psuMasked: per-psuBlock streams, scalar
// fast-forward to the window's first position.
func refPSUWindow(shares [][]uint16, rg protocol.Range, seed prg.Seed, qid string, delta uint64) []uint16 {
	out := make([]uint16, 0, rg.Count)
	for blk := rg.Offset / psuBlock; blk*psuBlock < rg.End(); blk++ {
		lo, hi := max(blk*psuBlock, rg.Offset), min((blk+1)*psuBlock, rg.End())
		g := prg.New(seed.Derive(fmt.Sprintf("psu/%s/%d", qid, blk)))
		for skip := blk * psuBlock; skip < lo; skip++ {
			g.Range1(delta)
		}
		out = append(out, refPSU(shares, int(lo-rg.Offset), int(hi-rg.Offset), g, delta)...)
	}
	return out
}

// kernelCase is one randomly filled input shape; the kernels and the
// references are pure functions of it.
type kernelCase struct {
	m, n   int
	delta  uint64
	mShare uint64
	shares [][]uint16
	cols   [][]uint64
	z      []uint64
	powTab []uint32
	md     modmath.Mod32
	pos    perm.Perm
}

// newKernelCase draws a case from g. edge fills every δ-share with δ−1
// and every F_p share with P−1 (the lazy-reduction overflow edge).
func newKernelCase(g *prg.PRG, m, n int, delta uint64, edge bool) *kernelCase {
	c := &kernelCase{m: m, n: n, delta: delta, mShare: g.Uint64n(delta), md: modmath.NewMod32(delta)}
	c.powTab = make([]uint32, delta)
	for e := range c.powTab {
		c.powTab[e] = uint32(g.Uint64())
	}
	c.z = make([]uint64, n)
	g.Fill(c.z, field.P)
	for j := 0; j < m; j++ {
		sv, cv := make([]uint16, n), make([]uint64, n)
		if edge {
			for i := range sv {
				sv[i], cv[i] = uint16(delta-1), field.P-1
			}
		} else {
			g.FillUint16(sv, delta)
			g.Fill(cv, field.P)
		}
		c.shares, c.cols = append(c.shares, sv), append(c.cols, cv)
	}
	if edge {
		for i := range c.z {
			c.z[i] = field.P - 1
		}
	}
	c.pos = perm.Random(g, n)
	return c
}

// check runs every kernel over [0, n) split at the given cut points and
// compares with the references, then holds the two ways a permuted reply
// is produced against each other: scattering through pos on the way out
// and evaluating the shares gathered through pos⁻¹ in reply order. PSI
// must agree exactly; PSU draws its masks in walk order, so it agrees up
// to the zero pattern.
func (c *kernelCase) check(t testing.TB, cuts ...int) {
	t.Helper()
	bounds := append(append([]int{0}, cuts...), c.n)
	lift := uint32(c.delta - c.mShare)
	wantPSI := refPSI(c.shares, c.n, c.powTab, c.delta, c.mShare)
	wantSum := refSum(c.cols, c.z)
	seed := prg.SeedFromString("kernel-masks")
	wantPSU := refPSU(c.shares, 0, c.n, prg.New(seed), c.delta)

	var psi []uint32
	var psu []uint16
	for _, scatter := range []perm.Perm{nil, c.pos} {
		g := prg.New(seed)
		psi, psu = make([]uint32, c.n), make([]uint16, c.n)
		for k := 0; k+1 < len(bounds); k++ {
			psiKernel(psi, scatter, c.shares, bounds[k], bounds[k+1], c.powTab, c.md, lift)
			psuKernel(psu, scatter, c.shares, bounds[k], bounds[k+1], g, c.delta, c.md)
		}
		wPSI, wPSU := wantPSI, wantPSU
		if scatter != nil {
			wPSI, wPSU = perm.Apply(scatter, wantPSI, nil), perm.Apply(scatter, wantPSU, nil)
		}
		if !slices.Equal(psi, wPSI) {
			t.Fatalf("psiKernel differs from reference (m=%d n=%d δ=%d scatter=%v cuts=%v)", c.m, c.n, c.delta, scatter != nil, cuts)
		}
		if !slices.Equal(psu, wPSU) {
			t.Fatalf("psuKernel differs from reference (m=%d n=%d δ=%d scatter=%v cuts=%v)", c.m, c.n, c.delta, scatter != nil, cuts)
		}
	}
	gathered := make([][]uint16, c.m)
	for j, sv := range c.shares {
		gathered[j] = make([]uint16, c.n)
		for p, cell := range c.pos.Inverse() {
			gathered[j][p] = sv[cell]
		}
	}
	gPSI, gPSU, g := make([]uint32, c.n), make([]uint16, c.n), prg.New(seed)
	for k := 0; k+1 < len(bounds); k++ {
		psiKernel(gPSI, nil, gathered, bounds[k], bounds[k+1], c.powTab, c.md, lift)
		psuKernel(gPSU, nil, gathered, bounds[k], bounds[k+1], g, c.delta, c.md)
	}
	if !slices.Equal(gPSI, psi) {
		t.Fatalf("psiKernel over gathered shares differs from the scattered reply (m=%d n=%d δ=%d cuts=%v)", c.m, c.n, c.delta, cuts)
	}
	for p := range psu {
		if (gPSU[p] == 0) != (psu[p] == 0) {
			t.Fatalf("psuKernel over gathered shares: position %d zero = %v, scattered reply says %v (m=%d n=%d δ=%d cuts=%v)",
				p, gPSU[p] == 0, psu[p] == 0, c.m, c.n, c.delta, cuts)
		}
	}
	sum := make([]uint64, c.n)
	for k := 0; k+1 < len(bounds); k++ {
		sumKernel(sum, c.cols, c.z, bounds[k], bounds[k+1])
	}
	if !slices.Equal(sum, wantSum) {
		t.Fatalf("sumKernel differs from reference (m=%d n=%d cuts=%v)", c.m, c.n, cuts)
	}
}

func TestKernelsMatchReference(t *testing.T) {
	g := prg.New(prg.SeedFromString("kernels"))
	for _, m := range []int{1, 2, 7, 8, 9, 10, 64, 300} {
		for _, n := range []int{0, 1, kernelBlock - 1, kernelBlock, kernelBlock + 1, 3*kernelBlock + 5} {
			for _, delta := range []uint64{3, 113, 65521} {
				for _, edge := range []bool{false, true} {
					c := newKernelCase(g, m, n, delta, edge)
					c.check(t)
					if n > 2 {
						c.check(t, 1, n/3, n/3+kernelBlock/2, n-1) // ragged worker ranges
					}
				}
			}
		}
	}
}

func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte("seed"), uint16(10), uint16(3000), uint8(1), uint16(700), false)
	f.Add([]byte{}, uint16(1), uint16(0), uint8(0), uint16(0), true)
	f.Add([]byte{0xff}, uint16(300), uint16(1025), uint8(2), uint16(1024), true)
	deltas := []uint64{3, 113, 65521}
	f.Fuzz(func(t *testing.T, seed []byte, m, n uint16, di uint8, cut uint16, edge bool) {
		delta := deltas[int(di)%len(deltas)]
		owners := 1 + int(m)%300
		cells := int(n) % (4 * kernelBlock)
		c := newKernelCase(prg.New(prg.SeedFromString(string(seed))), owners, cells, delta, edge)
		if cells == 0 {
			c.check(t)
			return
		}
		c.check(t, int(cut)%cells)
	})
}

func TestKernelsDoNotAllocate(t *testing.T) {
	c := newKernelCase(prg.New(prg.SeedFromString("allocs")), 10, 3*kernelBlock+5, 113, false)
	psi, psu, sum := make([]uint32, c.n), make([]uint16, c.n), make([]uint64, c.n)
	g := prg.New(prg.SeedFromString("allocs-masks"))
	for name, fn := range map[string]func(){
		"psiKernel":         func() { psiKernel(psi, nil, c.shares, 0, c.n, c.powTab, c.md, 1) },
		"psiKernel/scatter": func() { psiKernel(psi, c.pos, c.shares, 0, c.n, c.powTab, c.md, 1) },
		"psuKernel":         func() { psuKernel(psu, nil, c.shares, 0, c.n, g, c.delta, c.md) },
		"sumKernel":         func() { sumKernel(sum, c.cols, c.z, 0, c.n) },
	} {
		if a := testing.AllocsPerRun(10, fn); a != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, a)
		}
	}
}

// kernelEngine is an additive-share server over b cells with no tables.
func kernelEngine(b uint64, m, threads int) *Engine {
	return New(&params.ServerView{
		M: m, B: b, Delta: 113, EtaPrime: 13 * 227, G: 4, MShare: 41,
		PSUSeed: prg.SeedFromString("kernel-psu"),
		S1:      perm.Random(prg.New(prg.SeedFromString("kernel-s1")), int(b)),
		S2:      perm.Identity(int(b)),
	}, Options{Threads: threads})
}

// TestWrappersMatchReference drives the three timing wrappers at Threads
// 1 and 4, PSU over windows that start and end inside a psuBlock.
func TestWrappersMatchReference(t *testing.T) {
	const b, m = 2*psuBlock + 1000, 5
	c := newKernelCase(prg.New(prg.SeedFromString("wrappers")), m, b, 113, false)
	windows := []protocol.Range{
		{Offset: 0, Count: b},
		{Offset: 100, Count: 50},                       // inside one block
		{Offset: psuBlock - 7, Count: 20},              // straddles a boundary
		{Offset: psuBlock / 2, Count: psuBlock + 4321}, // starts and ends mid-block
		{Offset: 2 * psuBlock, Count: 1000},            // aligned start, short tail block
		{Offset: psuBlock + kernelBlock + 3, Count: 1}, // fast-forward across mask batches
	}
	for _, threads := range []int{1, 4} {
		e := kernelEngine(b, m, threads)
		var stats protocol.Stats
		want := refPSI(c.shares, b, e.powTab, e.view.Delta, uint64(e.view.MShare))
		if got := e.psiVector(c.shares, true, nil, &stats); !slices.Equal(got, want) {
			t.Fatalf("threads %d: psiVector differs from reference", threads)
		}
		if got := e.psiVector(c.shares, true, e.view.S1, &stats); !slices.Equal(got, perm.Apply(e.view.S1, want, nil)) {
			t.Fatalf("threads %d: scattered psiVector differs from permuted reference", threads)
		}
		for _, rg := range windows {
			win := make([][]uint16, m)
			for j := range win {
				win[j] = c.shares[j][rg.Offset:rg.End()]
			}
			want := refPSUWindow(win, rg, e.view.PSUSeed, "q7", e.view.Delta)
			if got := e.psuMasked(win, rg, "q7", nil, &stats); !slices.Equal(got, want) {
				t.Fatalf("threads %d: psuMasked window %+v differs from reference", threads, rg)
			}
		}
		full := protocol.Range{Offset: 0, Count: b}
		wantPSU := perm.Apply(e.view.S1, refPSUWindow(c.shares, full, e.view.PSUSeed, "q8", e.view.Delta), nil)
		if got := e.psuMasked(c.shares, full, "q8", e.view.S1, &stats); !slices.Equal(got, wantPSU) {
			t.Fatalf("threads %d: scattered psuMasked differs from permuted reference", threads)
		}

		spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"c"}}
		for j := 0; j < m; j++ {
			if _, err := e.Handle(context.Background(), protocol.StoreRequest{
				Owner: j, Spec: spec, ChiAdd: c.shares[j], SumCols: map[string][]uint64{"c": c.cols[j]},
			}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := e.Handle(context.Background(), protocol.AggRequest{Table: "t", QueryID: "q9", Cols: []string{"c"}, Z: c.z})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.(protocol.AggReply).Sums["c"], refSum(c.cols, c.z)) {
			t.Fatalf("threads %d: aggregation differs from reference", threads)
		}
	}
}

// TestPSUUnionAcrossServerShapes answers one PSU query the way two
// differently run servers would: S1 replies with one whole-table frame
// at Threads 1, S2 with 64Ki-cell windows at Threads 4. Their masks must
// still cancel cell for cell, so the combined vector is nonzero exactly
// on the plaintext union.
func TestPSUUnionAcrossServerShapes(t *testing.T) {
	const b, m, delta = 3*psuBlock + 1000, 4, 113
	g := prg.New(prg.SeedFromString("psu-shapes"))
	union := make([]bool, b)
	engines := []*Engine{kernelEngine(b, m, 1), kernelEngine(b, m, 4)}
	engines[1].view.Index = 1
	ctx := context.Background()
	spec := protocol.TableSpec{Name: "u", B: b, Plain: true}
	for j := 0; j < m; j++ {
		chi := make([]uint16, b)
		for i := range chi {
			if g.Uint64n(8) == 0 {
				chi[i], union[i] = 1, true
			}
		}
		for phi, sv := range share.AdditiveSplitVector(g, chi, delta, 2) {
			if _, err := engines[phi].Handle(ctx, protocol.StoreRequest{Owner: j, Spec: spec, ChiAdd: sv}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := engines[0].Handle(ctx, protocol.PSURequest{Table: "u", QueryID: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	out0 := rep.(protocol.PSUReply).Out
	var out1 []uint16
	for off := uint64(0); off < b; off += psuBlock {
		rg := protocol.Range{Offset: off, Count: min(psuBlock, b-off)}
		rep, err := engines[1].Handle(ctx, protocol.PSURequest{Table: "u", QueryID: "q1", Shard: rg})
		if err != nil {
			t.Fatal(err)
		}
		out1 = append(out1, rep.(protocol.PSUReply).Out...)
	}
	if len(out0) != b || len(out1) != b {
		t.Fatalf("reply lengths %d, %d, want %d", len(out0), len(out1), b)
	}
	for i := range union {
		if in := (uint32(out0[i])+uint32(out1[i]))%delta != 0; in != union[i] {
			t.Fatalf("cell %d: in union = %v, plaintext says %v", i, in, union[i])
		}
	}
}

// The kernel microbenchmarks run the benchmark's shape (10 owners, 2^18
// cells, δ = 113) beside the scalar reference loops.

func benchCase() *kernelCase {
	return newKernelCase(prg.New(prg.SeedFromString("bench")), 10, 1<<18, 113, false)
}

func BenchmarkKernelPSI(b *testing.B) {
	c := benchCase()
	out := make([]uint32, c.n)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psiKernel(out, nil, c.shares, 0, c.n, c.powTab, c.md, 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
	b.Run("kernel-scatter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psiKernel(out, c.pos, c.shares, 0, c.n, c.powTab, c.md, 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refPSI(c.shares, c.n, c.powTab, c.delta, c.mShare)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
}

func BenchmarkKernelPSU(b *testing.B) {
	c := benchCase()
	out := make([]uint16, c.n)
	g := prg.New(prg.SeedFromString("bench-masks"))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psuKernel(out, nil, c.shares, 0, c.n, g, c.delta, c.md)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refPSU(c.shares, 0, c.n, g, c.delta)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
}

func BenchmarkKernelSum(b *testing.B) {
	c := benchCase()
	out := make([]uint64, c.n)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sumKernel(out, c.cols, c.z, 0, c.n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refSum(c.cols, c.z)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
}
