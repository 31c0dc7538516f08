package modmath

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestMulModSmall(t *testing.T) {
	cases := []struct{ a, b, m, want uint64 }{
		{3, 4, 5, 2},
		{0, 9, 7, 0},
		{6, 6, 7, 1},
		{112, 112, 113, 1},
		{226, 226, 227, 1},
	}
	for _, c := range cases {
		if got := MulMod(c.a, c.b, c.m); got != c.want {
			t.Errorf("MulMod(%d,%d,%d)=%d want %d", c.a, c.b, c.m, got, c.want)
		}
	}
}

func TestMulModAgainstBig(t *testing.T) {
	f := func(a, b, m uint64) bool {
		m = m%(1<<62) + 2
		a %= m
		b %= m
		got := MulMod(a, b, m)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubMod(t *testing.T) {
	f := func(a, b, m uint64) bool {
		m = m%(1<<62) + 2
		a %= m
		b %= m
		s := AddMod(a, b, m)
		if SubMod(s, b, m) != a {
			return false
		}
		if SubMod(s, a, m) != b {
			return false
		}
		return s < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPowMod(t *testing.T) {
	if got := PowMod(3, 0, 113); got != 1 {
		t.Errorf("3^0 mod 113 = %d", got)
	}
	if got := PowMod(3, 112, 113); got != 1 { // Fermat
		t.Errorf("3^112 mod 113 = %d want 1", got)
	}
	if got := PowMod(2, 10, 1000); got != 24 {
		t.Errorf("2^10 mod 1000 = %d want 24", got)
	}
	if got := PowMod(5, 117, 1); got != 0 {
		t.Errorf("mod 1 should be 0, got %d", got)
	}
}

func TestInvMod(t *testing.T) {
	p := uint64(2305843009213693951) // 2^61-1, prime
	f := func(a uint64) bool {
		a = a%(p-1) + 1
		inv := InvMod(a, p)
		return MulMod(a, inv, p) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPrimeKnownValues(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 113, 227, 5003, 65521, 2305843009213693951, 18446744073709551557}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 111, 143, 221, 25326001, 3215031751, 3825123056546413051}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestIsPrimeAgainstBig(t *testing.T) {
	f := func(n uint64) bool {
		n %= 1 << 40
		return IsPrime(n) == big.NewInt(0).SetUint64(n).ProbablyPrime(30)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ n, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {100, 101}, {114, 127}, {113, 113},
	}
	for _, c := range cases {
		if got := NextPrime(c.n); got != c.want {
			t.Errorf("NextPrime(%d)=%d want %d", c.n, got, c.want)
		}
	}
}

// TestPaperParameters verifies the exact group the paper evaluates with:
// δ=113, η=227 (η-1 = 2·113) and the worked example δ=5, η=11, η'=143, g=3.
func TestPaperParameters(t *testing.T) {
	eta, err := FindEta(113, 113)
	if err != nil {
		t.Fatal(err)
	}
	if eta != 227 {
		t.Errorf("FindEta(113) = %d, want 227 (paper's experimental η)", eta)
	}
	g, err := SubgroupGenerator(113, 227)
	if err != nil {
		t.Fatal(err)
	}
	// g must have multiplicative order exactly 113.
	if PowMod(g, 113, 227) != 1 || g == 1 {
		t.Errorf("generator %d does not have order 113", g)
	}

	// Worked example of §5.1: δ=5, η=11, g=3 generates {1,3,9,5,4}.
	g2, err := SubgroupGenerator(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if PowMod(g2, 5, 11) != 1 || g2 == 1 {
		t.Errorf("subgroup generator %d of order 5 in Z*_11 invalid", g2)
	}
}

func TestSubgroupGeneratorOrder(t *testing.T) {
	// For several (δ, η) pairs, check g has order exactly δ (prime order:
	// g != 1 and g^δ = 1 suffices).
	deltas := []uint64{5, 53, 113, 251, 65521}
	for _, d := range deltas {
		eta, err := FindEta(d, d)
		if err != nil {
			t.Fatalf("FindEta(%d): %v", d, err)
		}
		g, err := SubgroupGenerator(d, eta)
		if err != nil {
			t.Fatalf("SubgroupGenerator(%d,%d): %v", d, eta, err)
		}
		if g == 1 || PowMod(g, d, eta) != 1 {
			t.Errorf("g=%d is not an order-%d element of Z*_%d", g, d, eta)
		}
		// Every power g^e for 0<e<δ must differ from 1 (prime order).
		if d < 1000 {
			for e := uint64(1); e < d; e++ {
				if PowMod(g, e, eta) == 1 {
					t.Fatalf("g=%d has order %d < δ=%d", g, e, d)
				}
			}
		}
	}
}

func TestPowTable(t *testing.T) {
	g, eta := uint64(3), uint64(143) // η' = 13·11 as in the paper's example
	tab := PowTable(g, 5, eta)
	for e := uint64(0); e < 5; e++ {
		if uint64(tab[e]) != PowMod(g, e, eta) {
			t.Errorf("tab[%d]=%d want %d", e, tab[e], PowMod(g, e, eta))
		}
	}
	// Paper example values: 3^((7+3+2-1) mod 5 ... ) etc. Spot check 3^1=3, 3^3=27, 3^4=81.
	if tab[1] != 3 || tab[3] != 27 || tab[4] != 81 {
		t.Errorf("unexpected table %v", tab)
	}
}

func TestModularIdentityEtaPrime(t *testing.T) {
	// (x mod αη) mod η == x mod η — the identity the PSI correctness uses.
	f := func(x uint64, alpha uint64) bool {
		eta := uint64(227)
		alpha = alpha%1000 + 2
		etaP := alpha * eta
		return (x%etaP)%eta == x%eta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMod32MatchesDivision(t *testing.T) {
	values := []uint32{0, 1, 2, 112, 113, 65520, 65521, 65535, 65536, 1<<31 - 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
	for _, d := range []uint64{1, 2, 3, 5, 113, 65521, 65536, 1<<31 - 1, 1 << 31, 1<<32 - 1} {
		r := NewMod32(d)
		for _, a := range values {
			for _, off := range []uint32{0, 1, ^uint32(0)} { // a, a+1, a-1
				if v := a + off; uint64(r.Reduce(v)) != uint64(v)%d {
					t.Fatalf("Mod32(%d).Reduce(%d) = %d, want %d", d, v, r.Reduce(v), uint64(v)%d)
				}
			}
		}
		for k := uint32(0); k < 100000; k++ {
			v := k * 2654435761 // spread over all 32 bits
			if uint64(r.Reduce(v)) != uint64(v)%d {
				t.Fatalf("Mod32(%d).Reduce(%d) = %d, want %d", d, v, r.Reduce(v), uint64(v)%d)
			}
		}
	}
}

// splitmix64 is a deterministic 64-bit stream for the reducer tests.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestMod64MatchesDivision: Barrett reduction by a modulus below 2^32 is
// exact for every 64-bit value — the edges, the largest product of two
// 32-bit cells, 2^64−1, random words and random products of two uint32.
func TestMod64MatchesDivision(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for _, m := range []uint64{2, 3, 227, 2951, 65537, 1<<31 - 1, 4294967291} {
		r := NewMod64(m)
		check := func(x uint64) {
			if got := r.Reduce(x); uint64(got) != x%m {
				t.Fatalf("Mod64(%d).Reduce(%d) = %d, want %d", m, x, got, x%m)
			}
		}
		for _, x := range []uint64{0, 1, m - 1, m, m * m, (1<<32 - 1) * (1<<32 - 1), ^uint64(0)} {
			check(x)
		}
		s := m
		for i := 0; i < n; i++ {
			w := splitmix64(&s)
			check(w)
			check(uint64(uint32(w)) * (w >> 32))
		}
	}
}

var sink uint64

// BenchmarkMulMod and BenchmarkMod64 time one product mod η = 227 (the
// paper's) per op: the generic 128-by-64 division the benchmark's
// mulmod_ns probe times, and the owner's precomputed reduction of a
// product of two 32-bit cells.
func BenchmarkMulMod(b *testing.B) {
	a, c := mod64Operands(227)
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		j := i & (len(a) - 1)
		acc += MulMod(uint64(a[j]), uint64(c[j]), 227)
	}
	sink = acc
}

func BenchmarkMod64(b *testing.B) {
	a, c := mod64Operands(227)
	r := NewMod64(227)
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		j := i & (len(a) - 1)
		acc += uint64(r.Reduce(uint64(a[j]) * uint64(c[j])))
	}
	sink = acc
}

// mod64Operands returns two 4096-entry vectors of residues mod m.
func mod64Operands(m uint64) (a, c []uint32) {
	a, c = make([]uint32, 4096), make([]uint32, 4096)
	s := m
	for i := range a {
		a[i], c[i] = uint32(splitmix64(&s)%m), uint32(splitmix64(&s)%m)
	}
	return a, c
}
