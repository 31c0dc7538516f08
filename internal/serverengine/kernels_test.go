package serverengine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"prism/internal/field"
	"prism/internal/levec"
	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/sharestore"
	"prism/internal/transport"
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
	m, n    int
	delta   uint64
	mShare  uint64
	shares  [][]uint16 // what each owner holds: its base with its overlay entries applied
	pshares [][]uint16 // shares[j] permuted by pos: what a permuted reply reads
	cols    [][]uint64
	sum     []uint16 // the fetch layer's owner sums over an in-memory table
	sumF    []uint64
	gsum    []uint16 // sum at the stored cells pos⁻¹[0, n), in reply order
	z       []uint64
	powTab  []uint32
	md      modmath.Mod32
	pos     perm.Perm
}

// newKernelCase draws a case from g: m owners' n-cell base columns and
// entries overlay entries (owner, cell, value) pending over them. edge
// fills every δ-share with δ−1 and every F_p share with P−1 (the
// lazy-reduction overflow edge) and gives the entries the values 0, δ−1
// and P−1. The owner sums come from ownerSum over an in-memory table:
// the builder, then the overlay merge.
func newKernelCase(t testing.TB, g *prg.PRG, m, n int, delta uint64, edge bool, entries int) *kernelCase {
	t.Helper()
	c := &kernelCase{m: m, n: n, delta: delta, mShare: g.Uint64n(delta), md: modmath.NewMod32(delta)}
	c.powTab = make([]uint32, delta)
	for e := range c.powTab {
		c.powTab[e] = uint32(g.Uint64())
	}
	c.z = make([]uint64, n)
	g.Fill(c.z, field.P)
	owners := make([]*ownerCols, m)
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
		owners[j] = &ownerCols{u16: colSet[uint16]{"chi": sv}, u64: colSet[uint64]{"sum.v": cv}}
		c.shares, c.cols = append(c.shares, slices.Clone(sv)), append(c.cols, slices.Clone(cv))
	}
	if edge {
		for i := range c.z {
			c.z[i] = field.P - 1
		}
	}
	c.pos = perm.Random(g, n)

	var overlay *deltaOverlay
	for k := 0; k < entries && n > 0; k++ {
		j, p := int(g.Uint64n(uint64(m))), g.Uint64n(uint64(n))
		v16, v64 := g.Uint64n(delta), g.Uint64n(field.P)
		if edge {
			v16, v64 = []uint64{0, delta - 1}[k%2], []uint64{0, field.P - 1}[k%2]
		}
		c.shares[j][p], c.cols[j][p] = uint16(v16), v64
		if overlay == nil {
			overlay = newDeltaOverlay()
		}
		overlay.insert([]sharestore.DeltaCol{
			{Name: colKey(j, "chi"), Width: 2, Pos: []uint64{p}, Vals: []uint64{v16}},
			{Name: colKey(j, "sum.v"), Width: 8, Pos: []uint64{p}, Vals: []uint64{v64}},
		}, uint64(k+1))
	}
	e := &Engine{view: &params.ServerView{M: m, Delta: delta}, modDelta: c.md}
	tv := &tableView{spec: protocol.TableSpec{Name: "k", B: uint64(n)}, owners: owners, cache: newChunkCache(nil)}
	if overlay != nil {
		tv.delta = overlay
	}
	whole := protocol.Range{Count: uint64(n)}
	c.sum = fetchedSum[uint16](t, e, tv, "chi", whole, nil, nil)
	c.sumF = fetchedSum[uint64](t, e, tv, "sum.v", whole, nil, nil)
	c.gsum = fetchedSum[uint16](t, e, tv, "chi", whole, c.pos.Inverse(), c.pos)
	for _, sv := range c.shares {
		c.pshares = append(c.pshares, perm.Apply(c.pos, sv, nil))
	}
	return c
}

// fetchedSum is a copy of ownerSum's result, released when borrowed.
func fetchedSum[T sharestore.Cell](t testing.TB, e *Engine, tv *tableView, col string, rg protocol.Range, idx []uint32, pf perm.Perm) []T {
	t.Helper()
	var stats protocol.Stats
	v, borrowed, err := ownerSum[T](e, tv, col, rg, idx, pf, &stats)
	if err != nil {
		t.Fatal(err)
	}
	out := slices.Clone(v)
	if borrowed {
		release(e, v)
	}
	return out
}

// laidVector lays a one-vector reply of n cells of T at T's full width,
// as the handlers lay theirs, and returns the vector for a kernel to
// write and a function that finishes the reply and returns the cells it
// carries, decoded. The reply is a PSUReply for uint16 cells, a PSIReply
// for uint32 and an AggReply's Counts for uint64.
func laidVector[T uint16 | uint32 | uint64](t testing.TB, n int) (protocol.Vector[T], func() []T) {
	t.Helper()
	var msg any
	switch any(T(0)).(type) {
	case uint16:
		msg = protocol.PSUReply{Out: protocol.Reserve[uint16]()}
	case uint32:
		msg = protocol.PSIReply{Out: protocol.Reserve[uint32]()}
	default:
		msg = protocol.AggReply{Counts: protocol.Reserve[uint64]()}
	}
	l, err := transport.Lay(msg, n, int(reflect.TypeFor[T]().Size()))
	if err != nil {
		t.Fatal(err)
	}
	return protocol.Cells[T](l, 0), func() []T {
		t.Helper()
		defer l.Release()
		if err := l.Finish(msg); err != nil {
			t.Fatal(err)
		}
		rep, err := l.Message()
		if err != nil {
			t.Fatal(err)
		}
		switch r := rep.(type) {
		case protocol.PSUReply:
			return any(r.Out).([]T)
		case protocol.PSIReply:
			return any(r.Out).([]T)
		default:
			return any(r.(protocol.AggReply).Counts).([]T)
		}
	}
}

// check first holds the owner sums to the per-cell Σ_j mod δ (and mod
// P), then runs every kernel over [0, n) split at the given cut points
// and compares with the references: in stored order over the sums, and
// in reply order over the sums gathered through pos⁻¹ — the one way a
// permuted reply is produced — against the references over the owners'
// shares permuted by pos.
func (c *kernelCase) check(t testing.TB, cuts ...int) {
	t.Helper()
	inv := c.pos.Inverse()
	for i := 0; i < c.n; i++ {
		var s, sf uint64
		for j := range c.shares {
			s += uint64(c.shares[j][i])
			sf = field.Add(sf, c.cols[j][i])
		}
		if uint64(c.sum[i]) != s%c.delta || c.sumF[i] != sf || c.gsum[i] != c.sum[inv[i]] {
			t.Fatalf("owner sums at cell %d: %d, %d, gathered %d; want %d, %d, %d (m=%d n=%d δ=%d)",
				i, c.sum[i], c.sumF[i], c.gsum[i], s%c.delta, sf, c.sum[inv[i]], c.m, c.n, c.delta)
		}
	}
	bounds := append(append([]int{0}, cuts...), c.n)
	chiTab := psiTable(c.powTab, c.mShare)
	seed := prg.SeedFromString("kernel-masks")
	for _, in := range []struct {
		name   string
		sum    []uint16
		shares [][]uint16
	}{{"stored", c.sum, c.shares}, {"gathered", c.gsum, c.pshares}} {
		psi, psiCells := laidVector[uint32](t, c.n)
		psu, psuCells := laidVector[uint16](t, c.n)
		g := prg.New(seed)
		for k := 0; k+1 < len(bounds); k++ {
			psiKernel(psi, in.sum, bounds[k], bounds[k+1], chiTab)
			psuKernel(psu, in.sum, bounds[k], bounds[k+1], g, c.delta, c.md)
		}
		if !slices.Equal(psiCells(), refPSI(in.shares, c.n, c.powTab, c.delta, c.mShare)) {
			t.Fatalf("psiKernel (%s) differs from reference (m=%d n=%d δ=%d cuts=%v)", in.name, c.m, c.n, c.delta, cuts)
		}
		if !slices.Equal(psuCells(), refPSU(in.shares, 0, c.n, prg.New(seed), c.delta)) {
			t.Fatalf("psuKernel (%s) differs from reference (m=%d n=%d δ=%d cuts=%v)", in.name, c.m, c.n, c.delta, cuts)
		}
	}
	sum, sumCells := laidVector[uint64](t, c.n)
	for k := 0; k+1 < len(bounds); k++ {
		sumKernel(sum, c.sumF, c.z, bounds[k], bounds[k+1])
	}
	if !slices.Equal(sumCells(), refSum(c.cols, c.z)) {
		t.Fatalf("sumKernel differs from reference (m=%d n=%d cuts=%v)", c.m, c.n, cuts)
	}
}

func TestKernelsMatchReference(t *testing.T) {
	g := prg.New(prg.SeedFromString("kernels"))
	for _, m := range []int{1, 2, 7, 8, 9, 10, 64, 300} {
		for _, n := range []int{0, 1, kernelBlock - 1, kernelBlock, kernelBlock + 1, 3*kernelBlock + 5} {
			for _, delta := range []uint64{3, 113, 65521} {
				for _, edge := range []bool{false, true} {
					for _, entries := range []int{0, 1 + n/3} {
						c := newKernelCase(t, g, m, n, delta, edge, entries)
						c.check(t)
						if n > 2 {
							c.check(t, 1, n/3, n/3+kernelBlock/2, n-1) // ragged worker ranges
						}
					}
				}
			}
		}
	}
}

// FuzzKernelsMatchReference drives the owner-sum builder, the overlay
// merge and the single-vector kernels, writing laid replies, on
// fuzzer-chosen owner counts (1 included), lengths, moduli, worker cut
// points, overlay entries and the all-(P−1)/(δ−1) edge.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte("seed"), uint16(10), uint16(3000), uint8(1), uint16(700), false, uint8(40))
	f.Add([]byte{}, uint16(1), uint16(0), uint8(0), uint16(0), true, uint8(0))
	f.Add([]byte{0xff}, uint16(300), uint16(1025), uint8(2), uint16(1024), true, uint8(255))
	deltas := []uint64{3, 113, 65521}
	f.Fuzz(func(t *testing.T, seed []byte, m, n uint16, di uint8, cut uint16, edge bool, entries uint8) {
		delta := deltas[int(di)%len(deltas)]
		owners := 1 + int(m)%300
		cells := int(n) % (4 * kernelBlock)
		c := newKernelCase(t, prg.New(prg.SeedFromString(string(seed))), owners, cells, delta, edge, int(entries))
		if cells == 0 {
			c.check(t)
			return
		}
		c.check(t, int(cut)%cells)
	})
}

func TestKernelsDoNotAllocate(t *testing.T) {
	c := newKernelCase(t, prg.New(prg.SeedFromString("allocs")), 10, 3*kernelBlock+5, 113, false, 0)
	psi, psiCells := laidVector[uint32](t, c.n)
	psu, psuCells := laidVector[uint16](t, c.n)
	sum, sumCells := laidVector[uint64](t, c.n)
	defer psiCells()
	defer psuCells()
	defer sumCells()
	g := prg.New(prg.SeedFromString("allocs-masks"))
	for name, fn := range map[string]func(){
		"psiKernel": func() { psiKernel(psi, c.sum, 0, c.n, c.powTab) },
		"psuKernel": func() { psuKernel(psu, c.sum, 0, c.n, g, c.delta, c.md) },
		"sumKernel": func() { sumKernel(sum, c.sumF, c.z, 0, c.n) },
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
	c := newKernelCase(t, prg.New(prg.SeedFromString("wrappers")), m, b, 113, false, 0)
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
		out, got := laidVector[uint32](t, b)
		if e.psiVector(out, c.sum, true, &stats); !slices.Equal(got(), want) {
			t.Fatalf("threads %d: psiVector differs from reference", threads)
		}
		out, got = laidVector[uint32](t, b)
		if e.psiVector(out, c.gsum, true, &stats); !slices.Equal(got(), perm.Apply(c.pos, want, nil)) {
			t.Fatalf("threads %d: gathered psiVector differs from permuted reference", threads)
		}
		for _, rg := range windows {
			win := make([][]uint16, m)
			for j := range win {
				win[j] = c.shares[j][rg.Offset:rg.End()]
			}
			want := refPSUWindow(win, rg, e.view.PSUSeed, "q7", e.view.Delta)
			out, got := laidVector[uint16](t, int(rg.Count))
			if e.psuMasked(out, c.sum[rg.Offset:rg.End()], rg, "q7", &stats); !slices.Equal(got(), want) {
				t.Fatalf("threads %d: psuMasked window %+v differs from reference", threads, rg)
			}
		}
		full := protocol.Range{Offset: 0, Count: b}
		wantPSU := refPSUWindow(c.pshares, full, e.view.PSUSeed, "q8", e.view.Delta)
		psu, gotPSU := laidVector[uint16](t, b)
		if e.psuMasked(psu, c.gsum, full, "q8", &stats); !slices.Equal(gotPSU(), wantPSU) {
			t.Fatalf("threads %d: gathered psuMasked differs from permuted reference", threads)
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
// cells, δ = 113): "kernel" reads the one owner-summed vector a query
// hands it, "gathered" first gathers that vector through a permutation's
// inverse as a permuted reply does, "reference" is the scalar loop that
// adds the ten owners per cell as well (BenchmarkFetchSummed times what
// the sum costs).

func benchCase(b *testing.B) *kernelCase {
	return newKernelCase(b, prg.New(prg.SeedFromString("bench")), 10, 1<<18, 113, false, 0)
}

func BenchmarkKernelPSI(b *testing.B) {
	c := benchCase(b)
	out, done := laidVector[uint32](b, c.n)
	defer done()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psiKernel(out, c.sum, 0, c.n, c.powTab)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/cell")
	})
	b.Run("gathered", func(b *testing.B) {
		inv := c.pos.Inverse()
		var stats protocol.Stats
		for i := 0; i < b.N; i++ {
			v := gatherCells(c.sum, inv, &stats)
			psiKernel(out, v, 0, c.n, c.powTab)
			u16Cells.Put(v)
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
	c := benchCase(b)
	out, done := laidVector[uint16](b, c.n)
	defer done()
	g := prg.New(prg.SeedFromString("bench-masks"))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psuKernel(out, c.sum, 0, c.n, g, c.delta, c.md)
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
	c := benchCase(b)
	out, done := laidVector[uint64](b, c.n)
	defer done()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sumKernel(out, c.sumF, c.z, 0, c.n)
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

// TestLaidRepliesAreCanonical: every reply HandleLaid lays — PSI and
// count with and without their proof, PSU in stored and permuted order,
// aggregation over one and two columns with counts and proof — decodes,
// is as long as its message encoded with every vector at the width its
// handler declares (η′ = 2951 declares 2 bytes, δ = 113 one, field
// shares 8), and so is as long, its Stats aside, as the same request's
// reply from a server whose every stored share is zero: over the whole
// table and over windows of 1 and 37 cells, where narrower cells are
// likely, with an all-zero selector, and traced, when the reply's spans
// outgrow the room left for its Stats.
func TestLaidRepliesAreCanonical(t *testing.T) {
	const b, m = 4096, 3
	g := prg.New(prg.SeedFromString("laid-replies"))
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"c", "d"}, HasVerify: true, HasCount: true}
	ctx := context.Background()
	engines := make([]*Engine, 2) // random shares, then zero ones
	for k := range engines {
		engines[k] = kernelEngine(b, m, 2)
		u16 := func() []uint16 {
			v := make([]uint16, b)
			if k == 0 {
				g.FillUint16(v, 113)
			}
			return v
		}
		u64 := func() []uint64 {
			v := make([]uint64, b)
			if k == 0 {
				g.Fill(v, field.P)
			}
			return v
		}
		for j := 0; j < m; j++ {
			if _, err := engines[k].Handle(ctx, protocol.StoreRequest{Owner: j, Spec: spec, ChiAdd: u16(), ChiBarAdd: u16(),
				SumCols: map[string][]uint64{"c": u64(), "d": u64()}, VSumCols: map[string][]uint64{"c": u64(), "d": u64()},
				CountCol: u64(), VCountCol: u64()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rg := range []protocol.Range{{}, {Offset: 7, Count: 1}, {Offset: b - 37, Count: 37}} {
		n := rg.Count
		if n == 0 { // the zero range is the whole table
			n = b
		}
		zero, z := make([]uint64, n), make([]uint64, n)
		g.Fill(z, field.P)
		for _, req := range []any{
			protocol.PSIRequest{Table: "t", Shard: rg},
			protocol.PSIRequest{Table: "t", Shard: rg, Verify: true},
			protocol.CountRequest{Table: "t", Shard: rg, Verify: true},
			protocol.PSURequest{Table: "t", QueryID: "q", Shard: rg},
			protocol.PSURequest{Table: "t", QueryID: "q", Shard: rg, Permute: true},
			protocol.AggRequest{Table: "t", Shard: rg, Cols: []string{"d"}, Z: z},
			protocol.AggRequest{Table: "t", Shard: rg, Cols: []string{"d", "c", "d"}, WithCount: true, Z: z, VZ: z},
			protocol.AggRequest{Table: "t", Shard: rg, Cols: []string{"c"}, Z: zero, VZ: zero},
			protocol.PSIRequest{Table: "t", Shard: rg, Verify: true, TraceID: "traced"},
			protocol.AggRequest{Table: "t", Shard: rg, Cols: []string{"c"}, Z: z, TraceID: "traced"},
		} {
			w := 2
			switch req.(type) {
			case protocol.PSURequest:
				w = 1
			case protocol.AggRequest:
				w = 8
			}
			var lens []int
			for _, e := range engines {
				rep, err := e.HandleLaid(ctx, req)
				if err != nil {
					t.Fatalf("%T over %+v: %v", req, rg, err)
				}
				l, ok := rep.(*protocol.Laid)
				if !ok {
					t.Fatalf("%T over %+v: a %T, not a laid reply", req, rg, rep)
				}
				msg, err := l.Message()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := len(l.Payload()), declaredSize(t, msg, w); got != want {
					t.Fatalf("%T over %+v: a laid reply of %d bytes; its message with every vector at width %d is %d", req, rg, got, w, want)
				}
				lens = append(lens, len(l.Payload())-statsBytes(t, msg))
				l.Release()
			}
			if lens[0] != lens[1] {
				t.Fatalf("%T over %+v: replies of %d and %d bytes besides their Stats", req, rg, lens[0], lens[1])
			}
		}
	}
}

// declaredSize is the size of msg's ordinary encoding with each of its
// vectors widened to w bytes a cell.
func declaredSize(t *testing.T, msg any, w int) int {
	t.Helper()
	m, err := protocol.Measure(msg)
	if err != nil {
		t.Fatal(err)
	}
	size := m.Size
	v := reflect.ValueOf(msg)
	for i := range v.NumField() {
		switch f := v.Field(i).Interface().(type) {
		case []uint16:
			size += len(f) * (w - levec.Width(f))
		case []uint32:
			size += len(f) * (w - levec.Width(f))
		case []uint64:
			size += len(f) * (w - levec.Width(f))
		case map[string][]uint64:
			for _, c := range f {
				size += len(c) * (w - levec.Width(c))
			}
		}
	}
	return size
}

// statsBytes is what msg's Stats add to its ordinary encoding.
func statsBytes(t *testing.T, msg any) int {
	t.Helper()
	bare := reflect.New(reflect.TypeOf(msg)).Elem()
	bare.Set(reflect.ValueOf(msg))
	bare.FieldByName("Stats").SetZero()
	with, err := protocol.Measure(msg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := protocol.Measure(bare.Interface())
	if err != nil {
		t.Fatal(err)
	}
	return with.Size - without.Size
}
