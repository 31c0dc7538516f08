package ownerengine

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"prism/internal/modmath"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
)

// The owner's result pass walks stored order (psiHits, markBits,
// cellsOf, mismatch). undoDBRef and mismatchRef are the natural-order
// loops it replaced, kept as the reference it must agree with: the same
// cells, the same verdicts and the same cell named in an error.

// undoDBRef undoes PF_db1 in natural order: cell i is stored at DB1[i]
// of the membership vector in or, for PSI, of the χ vector r1, and when
// r2 is set at DB2[i] of the χ̄ vector r2.
func (o *engine) undoDBRef(in []bool, r1, r2 []uint32) ([]uint64, error) {
	red, one, db2 := o.modEta, uint32(1%o.view.Eta), o.view.DB2
	var cells []uint64
	for i, at := range o.view.DB1 {
		if in != nil {
			if in[at] {
				cells = append(cells, uint64(i))
			}
			continue
		}
		v := r1[at]
		if r2 != nil && red.Reduce(uint64(v)*uint64(r2[db2[i]])) != one {
			return nil, fmt.Errorf("%w: PSI cell %d fails r1·r2 ≡ 1", ErrVerificationFailed, i)
		}
		if v == one {
			cells = append(cells, uint64(i))
		}
	}
	return cells, nil
}

// mismatchRef compares main[DB1[i]] with ver[DB2[i]] in natural order
// and names the first cell that differs, as mismatch words it.
func (o *engine) mismatchRef(name string, main, ver []uint64) error {
	db2 := o.view.DB2
	for i, at := range o.view.DB1 {
		if main[at] != ver[db2[i]] {
			return fmt.Errorf("%w: %s cell %d differs between main and verification copies", ErrVerificationFailed, name, i)
		}
	}
	return nil
}

// passEngine is an engine with just what the result pass reads: random
// PF_db1 and PF_db2 over b cells, η and their composite.
func passEngine(g *prg.PRG, b int, eta uint64) *engine {
	view := &params.OwnerView{B: uint64(b), Eta: eta, DB1: perm.Random(g, b), DB2: perm.Random(g, b)}
	return &engine{view: view, modEta: modmath.NewMod64(eta), comp: must(view.Composite())}
}

// passInput is one round-1 outcome in stored order: PSI's r1 and r2
// (every pair multiplying to 1 mod η), PSU's fop and its membership, and
// a verified aggregation's main and verification reconstructions.
type passInput struct {
	r1, r2, fop []uint32
	in          []bool
	main, ver   []uint64
}

// newPassInput puts a hit at each stored cell with probability
// density/256 and breaks the pairing at the natural cells in plant.
func newPassInput(g *prg.PRG, o *engine, density uint8, plant []int) passInput {
	b, eta := len(o.view.DB1), o.view.Eta
	one := 1 % eta
	in := passInput{r1: make([]uint32, b), r2: make([]uint32, b), fop: make([]uint32, b),
		in: make([]bool, b), main: make([]uint64, b), ver: make([]uint64, b)}
	for p := range b {
		hit := g.Uint64n(256) < uint64(density)
		in.in[p] = hit
		if hit {
			in.fop[p] = uint32(1 + g.Uint64n(eta-1)) // PSU: any nonzero sum
		}
		v := one // PSI: 1 at a hit, anything invertible elsewhere
		if !hit && eta > 2 {
			v = 2 + g.Uint64n(eta-2)
		}
		in.r1[p] = uint32(v)
		inv := new(big.Int).ModInverse(new(big.Int).SetUint64(v), new(big.Int).SetUint64(eta))
		if inv == nil { // η = 1: every value is 0 and 0·0 ≡ 0 ≡ 1
			inv = new(big.Int)
		}
		in.r2[o.comp[p]] = uint32(inv.Uint64())
		in.main[p] = g.Uint64()
		in.ver[o.comp[p]] = in.main[p]
	}
	for _, i := range plant {
		in.r2[o.view.DB2[i]]++ // r1·(r2+1) = 1 + r1, never 1: r1 is invertible
		in.ver[o.view.DB2[i]] ^= 1 << (i % 64)
	}
	return in
}

// checkPass runs every stored-order pass on one input against the
// natural-order reference; window is the PSU windows' width.
func checkPass(t *testing.T, o *engine, in passInput, window int) {
	t.Helper()
	b := len(in.r1)
	for _, r2 := range [][]uint32{nil, in.r2} {
		want, werr := o.undoDBRef(nil, in.r1, r2)
		hits, err := o.psiHits(in.r1, r2)
		var got []uint64
		if err == nil {
			got = o.cellsOf(hits)
		}
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("PSI (verify %v): got %v, %v; reference %v, %v", r2 != nil, got, err, want, werr)
		}
	}
	hits := make([]uint64, (b+63)/64)
	for lo := 0; lo < b; lo += window {
		markBits(hits, uint64(lo), in.fop[lo:min(lo+window, b)], 0, 0)
	}
	if got, want := o.cellsOf(hits), must(o.undoDBRef(in.in, nil, nil)); !reflect.DeepEqual(got, want) {
		t.Fatalf("PSU in windows of %d: got %v, reference %v", window, got, want)
	}
	if got, want := o.mismatch("count", in.main, in.ver), o.mismatchRef("count", in.main, in.ver); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("mismatch = %v, reference %v", got, want)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// FuzzOwnerPass: on fuzzer-chosen b (across the pass's 64-cell words and
// 4,096-cell blocks), permutations, η, hit density, PSU window width and
// up to three planted failing cells, the stored-order pass returns the
// natural-order reference's cells, verdict and named cell — PSI with
// and without its proof, PSU folded window by window, and mismatch.
func FuzzOwnerPass(f *testing.F) {
	f.Add(uint16(1), uint64(1), uint8(128), uint16(1), uint8(0), uint32(0))
	f.Add(uint16(200), uint64(2), uint8(3), uint16(63), uint8(1), uint32(17))
	f.Add(uint16(5000), uint64(3), uint8(250), uint16(4095), uint8(2), uint32(4999))
	f.Add(uint16(9000), uint64(4), uint8(160), uint16(100), uint8(3), uint32(1<<20|4097))
	f.Fuzz(func(t *testing.T, bRaw uint16, seed uint64, density uint8, windowRaw uint16, etaPick uint8, plantRaw uint32) {
		b := 1 + int(bRaw)%10000
		g := prg.New(prg.SeedFromString(fmt.Sprintf("owner-pass/%d", seed)))
		o := passEngine(g, b, []uint64{2, 3, 65537, 4294967291}[etaPick%4])
		var plant []int // plantRaw's low 2 bits: how many; the rest: where
		for k := range int(plantRaw & 3) {
			plant = append(plant, int((plantRaw>>2+uint32(k)*7919)%uint32(b)))
		}
		checkPass(t, o, newPassInput(g, o, density, plant), 1+int(windowRaw)%b)
	})
}

// TestOwnerPassPlantedFailures: a failure planted at one natural cell —
// the first, the last, one in a later 4,096-cell block than a second
// failure — is named by the first failing natural cell, as the
// natural-order loop names it; an honest reply passes with the same
// cells.
func TestOwnerPassPlantedFailures(t *testing.T) {
	g := prg.New(prg.SeedFromString("owner-pass-planted"))
	const b = 9000
	o := passEngine(g, b, 4294967291)
	for _, plant := range [][]int{nil, {0}, {b - 1}, {8000, 12}, {4096, 4095}} {
		checkPass(t, o, newPassInput(g, o, 40, plant), 4096)
		if plant == nil {
			continue
		}
		in := newPassInput(g, o, 40, plant)
		first := min(plant[0], plant[len(plant)-1])
		if _, err := o.psiHits(in.r1, in.r2); err == nil || err.Error() != fmt.Sprintf("%v: PSI cell %d fails r1·r2 ≡ 1", ErrVerificationFailed, first) {
			t.Errorf("plant %v: %v", plant, err)
		}
		if err := o.mismatch("count", in.main, in.ver); err == nil || err.Error() != fmt.Sprintf("%v: count cell %d differs between main and verification copies", ErrVerificationFailed, first) {
			t.Errorf("plant %v: %v", plant, err)
		}
	}
}

// TestOwnerPassFailsClosed: when the stored-order pass sees a failure
// that the natural-order rescan cannot name — comp out of step with DB1
// and DB2 — PSI and mismatch still fail verification, unnamed.
func TestOwnerPassFailsClosed(t *testing.T) {
	g := prg.New(prg.SeedFromString("owner-pass-closed"))
	o := passEngine(g, 300, 65537)
	in := newPassInput(g, o, 40, nil)
	o.comp = perm.Identity(300)
	if _, err := o.psiHits(in.r1, in.r2); err == nil || err.Error() != fmt.Sprintf("%v: a PSI cell fails r1·r2 ≡ 1", ErrVerificationFailed) {
		t.Errorf("PSI: %v", err)
	}
	if err := o.mismatch("count", in.main, in.ver); err == nil || err.Error() != fmt.Sprintf("%v: a count cell differs between main and verification copies", ErrVerificationFailed) {
		t.Errorf("mismatch: %v", err)
	}
}

// TestNewEngineChecksViewShape: a view whose DB1 or DB2 is not a
// permutation of its B cells is refused when the engine is built, not
// met as a panic in a query's result pass.
func TestNewEngineChecksViewShape(t *testing.T) {
	g := prg.New(prg.SeedFromString("owner-view-shape"))
	servers := []string{"s0", "s1", "s2"}
	for name, view := range map[string]*params.OwnerView{
		"short DB2":     {B: 8, Eta: 5, Delta: 5, DB1: perm.Random(g, 8), DB2: perm.Random(g, 7)},
		"DB1 past B":    {B: 7, Eta: 5, Delta: 5, DB1: perm.Random(g, 8), DB2: perm.Random(g, 7)},
		"duplicate DB1": {B: 3, Eta: 5, Delta: 5, DB1: perm.Perm{0, 2, 2}, DB2: perm.Identity(3)},
	} {
		if _, err := newEngine(0, view, nil, servers, 0, prg.SeedFromString("x")); err == nil {
			t.Errorf("%s: engine built", name)
		}
	}
}

// TestLocalValuesFollowsDataset: a Load or a committed update that
// replaces the dataset is what the next local values read, and a cell
// past the group's B finds nothing.
func TestLocalValuesFollowsDataset(t *testing.T) {
	r := newRig(t, 2, 8)
	o := r.owners[0]
	load := func(cells, vs []uint64) {
		if err := o.Load(&Data{Cells: cells, Aggs: map[string][]uint64{"v": vs}}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(vals []uint64, has []bool) {
		t.Helper()
		got, gotHas, err := o.localValues(0, protocol.KindMax, "v", []uint64{5, 3, 9})
		if err != nil || !reflect.DeepEqual(got, vals) || !reflect.DeepEqual(gotHas, has) {
			t.Fatalf("max at 5, 3, 9 = %v %v %v, want %v %v", got, gotHas, err, vals, has)
		}
	}
	load([]uint64{3, 5, 3}, []uint64{10, 99, 30})
	want([]uint64{99, 30, 0}, []bool{true, true, false})
	load([]uint64{5, 5, 7}, []uint64{4, 6, 1})
	want([]uint64{6, 0, 0}, []bool{true, false, false})
	o.mu.Lock()
	o.data = &Data{Cells: []uint64{3}, Aggs: map[string][]uint64{"v": {77}}} // as commitUpdate swaps it
	o.mu.Unlock()
	want([]uint64{0, 77, 0}, []bool{false, true, false})
}

// TestLocalValuesTwoGroups: an owner's tuples spread over both groups;
// each group's local values see only its own tuples, in its own
// numbering, whether a tuple's cell lies below the group's start or
// past its end.
func TestLocalValuesTwoGroups(t *testing.T) {
	multi, err := params.GenerateGroups(params.Config{NumOwners: 2, DomainSize: 16, MaxAgg: 100, Seed: prg.SeedFromString("two-groups")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]GroupConfig, len(multi.Groups))
	for g, gsys := range multi.Groups {
		groups[g] = GroupConfig{View: gsys.ForOwner(), Servers: []string{"s0", "s1", "s2"}}
	}
	o, err := New(0, groups, nil, 0, prg.SeedFromString("two-groups"))
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 holds cells 0–7, group 1 cells 8–15 (its 0–7).
	if err := o.Load(&Data{Cells: []uint64{1, 9, 15, 1, 7, 8}, Aggs: map[string][]uint64{"v": {4, 50, 6, 9, 3, 70}}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g     int
		cells []uint64
		vals  []uint64
		has   []bool
	}{
		{0, []uint64{1, 7, 0}, []uint64{9, 3, 0}, []bool{true, true, false}},
		{1, []uint64{1, 7, 0, 3}, []uint64{50, 6, 70, 0}, []bool{true, true, true, false}},
	} {
		vals, has, err := o.localValues(c.g, protocol.KindMax, "v", c.cells)
		if err != nil || !reflect.DeepEqual(vals, c.vals) || !reflect.DeepEqual(has, c.has) {
			t.Errorf("group %d, max at %v = %v %v %v; want %v %v", c.g, c.cells, vals, has, err, c.vals, c.has)
		}
	}
}

// BenchmarkOwnerPass times the owner's result pass at b = 2^18 (the
// repo benchmark's table): PSI's verified undo of PF_db1 with 64 hits,
// PSU's fold of 64Ki-cell windows into the bitmap and its undo at about
// the repo benchmark's two-thirds density, the §5.2 mismatch check of
// one column pair, the extreme rounds' local values at k = 64 cells of
// one of two groups over 26,214 tuples of both, and one SearchZ of a
// 10-owner polynomial.
func BenchmarkOwnerPass(b *testing.B) {
	const n = 1 << 18
	g := prg.New(prg.SeedFromString("owner-pass-bench"))
	o := passEngine(g, n, 4294967291)
	sparse, dense := newPassInput(g, o, 0, nil), newPassInput(g, o, 168, nil)
	for i := range 64 {
		p := o.view.DB1[i*(n/64)]
		sparse.r1[p], sparse.r2[o.comp[p]] = 1, 1
	}
	b.Run("psi-verify", func(b *testing.B) {
		for range b.N {
			if len(o.cellsOf(must(o.psiHits(sparse.r1, sparse.r2)))) != 64 {
				b.Fatal("lost a hit")
			}
		}
	})
	b.Run("psu", func(b *testing.B) {
		hits := make([]uint64, n/64)
		for range b.N {
			clear(hits)
			for lo := 0; lo < n; lo += 1 << 16 {
				markBits(hits, uint64(lo), dense.fop[lo:lo+1<<16], 0, 0)
			}
			o.cellsOf(hits)
		}
	})
	b.Run("mismatch", func(b *testing.B) {
		for range b.N {
			if o.mismatch("count", dense.main, dense.ver) != nil {
				b.Fatal("honest copies differ")
			}
		}
	})

	multi, err := params.GenerateGroups(params.Config{NumOwners: 10, DomainSize: n, MaxAgg: 11000, Seed: prg.SeedFromString("owner-pass-bench")}, 2)
	if err != nil {
		b.Fatal(err)
	}
	groups := make([]GroupConfig, len(multi.Groups))
	for gi, gsys := range multi.Groups {
		groups[gi] = GroupConfig{View: gsys.ForOwner(), Servers: []string{"s0", "s1", "s2"}}
	}
	ow, err := New(0, groups, nil, 0, prg.SeedFromString("owner-pass-bench"))
	if err != nil {
		b.Fatal(err)
	}
	d := &Data{Cells: make([]uint64, 26214), Aggs: map[string][]uint64{"DT": make([]uint64, 26214)}}
	var cells []uint64 // 64 cells of group 0 that hold a tuple
	for i := range d.Cells {
		d.Cells[i], d.Aggs["DT"][i] = g.Uint64n(n), 1+g.Uint64n(1000)
		if d.Cells[i] < multi.Groups[0].B && len(cells) < 64 {
			cells = append(cells, d.Cells[i])
		}
	}
	if err := ow.Load(d); err != nil {
		b.Fatal(err)
	}
	b.Run("localValues-k64", func(b *testing.B) {
		for range b.N {
			if _, has, err := ow.localValues(0, protocol.KindMax, "DT", cells); err != nil || !has[63] {
				b.Fatal("a listed cell lost its tuple", err)
			}
		}
	})
	poly := multi.Groups[0].ForOwner().Poly
	v := poly.Mask(g, 6789)
	b.Run("SearchZ", func(b *testing.B) {
		for range b.N {
			if z, err := poly.SearchZ(v, 11000); err != nil || z != 6789 {
				b.Fatal(z, err)
			}
		}
	})
}
