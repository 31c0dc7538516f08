package opoly

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"prism/internal/prg"
)

func testPoly(t *testing.T, m int) *Poly {
	t.Helper()
	p, err := New(prg.New(prg.SeedFromString("opoly-test")), m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDegree(t *testing.T) {
	for _, m := range []int{1, 3, 10, 50} {
		p := testPoly(t, m)
		if p.Degree() != m+1 {
			t.Errorf("m=%d degree=%d want %d", m, p.Degree(), m+1)
		}
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	g := prg.New(prg.SeedFromString("bad"))
	if _, err := New(g, 0, 10); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(g, 3, 0); err == nil {
		t.Error("coefBound=0 accepted")
	}
}

func TestPaperExamplePolynomial(t *testing.T) {
	// §6.3 example: F(x) = x^4 + x^3 + x^2 + x + 1; F(6)=1555, F(8)=4681.
	p := &Poly{Coeffs: []*big.Int{
		big.NewInt(1), big.NewInt(1), big.NewInt(1), big.NewInt(1), big.NewInt(1),
	}}
	if got := p.Eval(6); got.Cmp(big.NewInt(1555)) != 0 {
		t.Errorf("F(6) = %v want 1555", got)
	}
	if got := p.Eval(8); got.Cmp(big.NewInt(4681)) != 0 {
		t.Errorf("F(8) = %v want 4681", got)
	}
}

func TestStrictlyIncreasing(t *testing.T) {
	p := testPoly(t, 5)
	prev := p.Eval(0)
	for x := uint64(1); x < 200; x++ {
		cur := p.Eval(x)
		if cur.Cmp(prev) <= 0 {
			t.Fatalf("F not increasing at %d", x)
		}
		prev = cur
	}
}

func TestMaskOrderPreserving(t *testing.T) {
	// Core §6.3 property: M_i < M_j ⇒ F(M_i)+r_i < F(M_j)+r_j, for any
	// admissible random masks, because F(M_i)+r_i < F(M_i+1) <= F(M_j).
	p := testPoly(t, 8)
	g := prg.New(prg.SeedFromString("mask"))
	f := func(a, b uint32) bool {
		x, y := uint64(a%100000), uint64(b%100000)
		if x == y {
			return true
		}
		if x > y {
			x, y = y, x
		}
		vx, vy := p.Mask(g, x), p.Mask(g, y)
		return vx.Cmp(vy) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskWithinInterval(t *testing.T) {
	p := testPoly(t, 4)
	g := prg.New(prg.SeedFromString("interval"))
	for x := uint64(0); x < 50; x++ {
		v := p.Mask(g, x)
		if v.Cmp(p.Eval(x)) < 0 || v.Cmp(p.Eval(x+1)) >= 0 {
			t.Fatalf("mask at %d outside [F(x), F(x+1)): %v", x, v)
		}
	}
}

func TestSearchZRecoversMasked(t *testing.T) {
	p := testPoly(t, 6)
	g := prg.New(prg.SeedFromString("searchz"))
	f := func(a uint32) bool {
		x := uint64(a % 1000000)
		v := p.Mask(g, x)
		z, err := p.SearchZ(v, 1000000)
		return err == nil && z == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchZExactBoundary(t *testing.T) {
	p := testPoly(t, 3)
	// v = F(x) exactly (r = 0) must return x.
	for _, x := range []uint64{0, 1, 7, 99} {
		z, err := p.SearchZ(p.Eval(x), 1000)
		if err != nil || z != x {
			t.Errorf("SearchZ(F(%d)) = %d, %v", x, z, err)
		}
	}
}

func TestSearchZRejectsOutOfImage(t *testing.T) {
	p := testPoly(t, 3)
	// Below F(0):
	below := new(big.Int).Sub(p.Eval(0), big.NewInt(1))
	if _, err := p.SearchZ(below, 100); err == nil {
		t.Error("value below F(0) accepted")
	}
	// Beyond F(hi+1):
	beyond := p.Eval(102)
	if _, err := p.SearchZ(beyond, 100); err == nil {
		t.Error("value beyond domain accepted")
	}
}

func TestGapPositive(t *testing.T) {
	p := testPoly(t, 10)
	for x := uint64(0); x < 100; x++ {
		if p.Gap(x).Sign() <= 0 {
			t.Fatalf("gap at %d not positive", x)
		}
	}
}

func TestMaskedValuesDistinctWHP(t *testing.T) {
	// Two owners with the same maximum produce different v w.h.p. (§6.3
	// Step 3 note) — the gap at any x >= 2 is large for degree >= 2.
	p := testPoly(t, 10)
	g := prg.New(prg.SeedFromString("distinct"))
	const x = 42
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		v := p.Mask(g, x).String()
		if seen[v] {
			t.Fatalf("duplicate masked value after %d draws", i)
		}
		seen[v] = true
	}
}

func TestMaxMaskedBounds(t *testing.T) {
	p := testPoly(t, 5)
	g := prg.New(prg.SeedFromString("bound"))
	bound := uint64(1000)
	ub := p.MaxMasked(bound)
	for i := 0; i < 50; i++ {
		x := g.Uint64n(bound + 1)
		if p.Mask(g, x).Cmp(ub) >= 0 {
			t.Fatal("masked value exceeds MaxMasked bound")
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p1, _ := New(prg.New(prg.SeedFromString("same")), 4, 100)
	p2, _ := New(prg.New(prg.SeedFromString("same")), 4, 100)
	for i := range p1.Coeffs {
		if p1.Coeffs[i].Cmp(p2.Coeffs[i]) != 0 {
			t.Fatal("polynomial generation not deterministic")
		}
	}
}

// searchZRef is the binary search SearchZ replaced: the reference it
// must agree with, errors included.
func searchZRef(p *Poly, v *big.Int, hi uint64) (uint64, error) {
	if v.Cmp(p.Eval(0)) < 0 {
		return 0, fmt.Errorf("opoly: value below F(0), not a valid masked value")
	}
	if v.Cmp(p.Eval(hi+1)) >= 0 {
		return 0, fmt.Errorf("opoly: value beyond F(hi+1), outside declared domain")
	}
	lo, up := uint64(0), hi
	for lo < up {
		mid := lo + (up-lo+1)/2
		if v.Cmp(p.Eval(mid)) >= 0 {
			lo = mid
		} else {
			up = mid - 1
		}
	}
	return lo, nil
}

// TestSearchZMatchesBinarySearch: SearchZ agrees with the binary search
// — value and error text — at F(z), F(z+1)−1 and a random value between
// them for z across [0, hi], just below F(0) and at and past F(hi+1),
// and on random values up to F(hi+2); over the degrees of 1 to 12
// owners, coefficients drawn up to 1 and up to 10^6 (where the
// estimate's second-coefficient term matters most), hand-built
// polynomials whose leading coefficient dwarfs the rest or whose lower
// ones throw the estimate far off, and hi from 0 to 2^32.
func TestSearchZMatchesBinarySearch(t *testing.T) {
	g := prg.New(prg.SeedFromString("searchz-ref"))
	check := func(p *Poly, v *big.Int, hi uint64) {
		t.Helper()
		z, err := p.SearchZ(v, hi)
		wz, werr := searchZRef(p, v, hi)
		if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && z != wz {
			t.Fatalf("degree %d, hi %d, v = %v: SearchZ = %d, %v; binary search = %d, %v", p.Degree(), hi, v, z, err, wz, werr)
		}
	}
	one := big.NewInt(1)
	coeffs := func(cs ...int64) *Poly {
		p := &Poly{}
		for _, c := range cs {
			p.Coeffs = append(p.Coeffs, big.NewInt(c))
		}
		return p
	}
	polys := []*Poly{
		{Coeffs: []*big.Int{big.NewInt(7), big.NewInt(3), new(big.Int).Lsh(one, 200)}},
		// Estimates far off z, walked by the doubling steps: far below
		// it (a large a_1 under a small a_2), far above it (a large a_0,
		// a large a_2 under small a_3 and a_4).
		coeffs(1, 1e6, 1), coeffs(1e18, 1, 1), coeffs(1, 1, 1e12, 1, 1),
	}
	for _, m := range []int{1, 2, 3, 5, 10, 12} {
		for _, bound := range []uint64{1, 1000, 1000000} {
			p, err := New(g, m, bound)
			if err != nil {
				t.Fatal(err)
			}
			polys = append(polys, p)
		}
	}
	for _, p := range polys {
		for _, hi := range []uint64{0, 1, 2, 1000, 11000, 1 << 20, 1 << 32} {
			zs := []uint64{0, 1, hi / 2, hi}
			for range 12 {
				zs = append(zs, g.Uint64n(hi+1))
			}
			for _, z := range zs {
				fz, fz1 := p.Eval(z), p.Eval(z+1)
				check(p, fz, hi)
				check(p, new(big.Int).Sub(fz1, one), hi)
				check(p, new(big.Int).Add(fz, randBelow(g, new(big.Int).Sub(fz1, fz))), hi)
			}
			check(p, new(big.Int).Sub(p.Eval(0), one), hi)
			check(p, p.Eval(hi+1), hi)
			check(p, new(big.Int).Add(p.Eval(hi+1), p.Eval(hi)), hi)
			top := p.Eval(hi + 2)
			for range 12 {
				check(p, randBelow(g, top), hi)
			}
		}
	}
}
