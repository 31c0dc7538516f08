package share

import (
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"prism/internal/field"
	"prism/internal/prg"
)

func testPRG(label string) *prg.PRG {
	return prg.New(prg.SeedFromString(label))
}

func TestAdditiveRoundTrip(t *testing.T) {
	g := testPRG("add-rt")
	f := func(s uint64, cc uint8) bool {
		delta := uint64(113)
		c := int(cc%4) + 2
		s %= delta
		shares := AdditiveSplit(g, s, delta, c)
		return AdditiveReconstruct(shares, delta) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	// Sum of shares reconstructs to sum of secrets — the property Step 2
	// of PSI exploits (paper §5.1).
	g := testPRG("add-hom")
	delta := uint64(113)
	m := 10
	var want uint64
	sumShares := make([]uint64, 2)
	for j := 0; j < m; j++ {
		s := g.Uint64n(2) // bits, like χ entries
		want = (want + s) % delta
		sh := AdditiveSplit(g, s, delta, 2)
		for φ := range sumShares {
			sumShares[φ] = (sumShares[φ] + uint64(sh[φ])) % delta
		}
	}
	got := (sumShares[0] + sumShares[1]) % delta
	if got != want {
		t.Fatalf("homomorphic sum = %d want %d", got, want)
	}
}

func TestAdditiveShareUniformity(t *testing.T) {
	// A single share must be (statistically) independent of the secret:
	// share distribution for secret 0 vs 1 should both be ~uniform.
	g := testPRG("add-unif")
	delta := uint64(5)
	counts := make([]int, delta)
	for i := 0; i < 10000; i++ {
		sh := AdditiveSplit(g, uint64(i%2), delta, 2)
		counts[sh[1]]++ // the correction share
	}
	for v, c := range counts {
		if c < 1600 || c > 2400 { // expect 2000 each
			t.Errorf("share value %d count %d not uniform", v, c)
		}
	}
}

func TestAdditiveVectorMatchesScalar(t *testing.T) {
	g := testPRG("add-vec")
	delta := uint64(113)
	secrets := make([]uint16, 1000)
	for i := range secrets {
		secrets[i] = uint16(g.Uint64n(delta))
	}
	shares := AdditiveSplitVector(g, secrets, delta, 3)
	rec := AdditiveReconstructVector(shares, delta)
	for i := range secrets {
		if rec[i] != secrets[i] {
			t.Fatalf("vector reconstruct mismatch at %d: %d != %d", i, rec[i], secrets[i])
		}
	}
}

func TestAdditivePanics(t *testing.T) {
	g := testPRG("panics")
	mustPanic(t, func() { AdditiveSplit(g, 1, 1, 2) })
	mustPanic(t, func() { AdditiveSplit(g, 1, 1<<17, 2) })
	mustPanic(t, func() { AdditiveSplit(g, 1, 113, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestShamirRoundTrip(t *testing.T) {
	g := testPRG("shamir-rt")
	f := func(s uint64) bool {
		s = field.Reduce(s)
		shares := ShamirSplit(g, s, 1, 3)
		return ShamirReconstruct(shares) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestShamirDegreeTwoFromProduct(t *testing.T) {
	// The PSI-sum core (§6.1 Step 4): multiplying two degree-1 share
	// vectors pointwise yields degree-2 shares of the product, which
	// reconstruct from 3 points.
	g := testPRG("shamir-mul")
	f := func(a, b uint64) bool {
		a, b = field.Reduce(a), field.Reduce(b)
		sa := ShamirSplit(g, a, 1, 3)
		sb := ShamirSplit(g, b, 1, 3)
		prod := make([]field.Elem, 3)
		for i := range prod {
			prod[i] = field.Mul(sa[i], sb[i])
		}
		return ShamirReconstruct(prod) == field.Mul(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShamirSumOfProducts(t *testing.T) {
	// Full §6.1 aggregation shape: Σ_j x_j·z over m owners, done on shares.
	g := testPRG("shamir-sop")
	m := 7
	xs := make([]uint64, m)
	var want field.Elem
	z := uint64(1)
	sz := ShamirSplit(g, z, 1, 3)
	acc := make([]field.Elem, 3)
	for j := 0; j < m; j++ {
		xs[j] = g.Uint64n(1 << 40)
		sx := ShamirSplit(g, xs[j], 1, 3)
		for φ := 0; φ < 3; φ++ {
			acc[φ] = field.Add(acc[φ], field.Mul(sx[φ], sz[φ]))
		}
		want = field.Add(want, field.Reduce(xs[j]))
	}
	if got := ShamirReconstruct(acc); got != want {
		t.Fatalf("sum of products = %d want %d", got, want)
	}
	// With z = 0 the result must vanish regardless of xs.
	sz0 := ShamirSplit(g, 0, 1, 3)
	acc0 := make([]field.Elem, 3)
	for j := 0; j < m; j++ {
		sx := ShamirSplit(g, xs[j], 1, 3)
		for φ := 0; φ < 3; φ++ {
			acc0[φ] = field.Add(acc0[φ], field.Mul(sx[φ], sz0[φ]))
		}
	}
	if got := ShamirReconstruct(acc0); got != 0 {
		t.Fatalf("zero selector leaked value %d", got)
	}
}

func TestShamirTwoOfThreeInsufficientForDegree2(t *testing.T) {
	// Reconstructing a degree-2 sharing from only 2 points must (in
	// general) give the wrong answer — this is why Prism needs 3 servers
	// for aggregation queries (§3.2).
	g := testPRG("shamir-2of3")
	wrong := 0
	for i := 0; i < 50; i++ {
		a, b := field.Reduce(g.Uint64()), field.Reduce(g.Uint64())
		sa := ShamirSplit(g, a, 1, 3)
		sb := ShamirSplit(g, b, 1, 3)
		prod := []field.Elem{field.Mul(sa[0], sb[0]), field.Mul(sa[1], sb[1])}
		if ShamirReconstruct(prod) != field.Mul(a, b) {
			wrong++
		}
	}
	if wrong < 45 {
		t.Fatalf("2-share reconstruction of degree-2 worked %d/50 times", 50-wrong)
	}
}

func TestLagrangeWeightsKnown(t *testing.T) {
	// n=2: f(0) = 2f(1) - f(2); n=3: f(0) = 3f(1) - 3f(2) + f(3).
	w2 := LagrangeWeights(2)
	if field.ToInt64(w2[0]) != 2 || field.ToInt64(w2[1]) != -1 {
		t.Errorf("w2 = [%d %d] want [2 -1]", field.ToInt64(w2[0]), field.ToInt64(w2[1]))
	}
	w3 := LagrangeWeights(3)
	if field.ToInt64(w3[0]) != 3 || field.ToInt64(w3[1]) != -3 || field.ToInt64(w3[2]) != 1 {
		t.Errorf("w3 = [%d %d %d] want [3 -3 1]",
			field.ToInt64(w3[0]), field.ToInt64(w3[1]), field.ToInt64(w3[2]))
	}
}

func TestShamirVectorMatchesScalar(t *testing.T) {
	g := testPRG("shamir-vec")
	secrets := make([]field.Elem, 500)
	for i := range secrets {
		secrets[i] = field.Reduce(g.Uint64())
	}
	shares := ShamirSplitVector(g, secrets, 1, 3)
	rec := ShamirReconstructVector(shares)
	for i := range secrets {
		if rec[i] != secrets[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// TestShamirSplitBitsMatchesVector: the bitmap split over runs of cells
// whose ends fall inside and on split blocks gives ShamirSplitVector's
// shares of the 0/1 vector, from the same stream, and leaves the stream
// where ShamirSplitVector leaves it.
func TestShamirSplitBitsMatchesVector(t *testing.T) {
	for _, n := range []int{0, 1, splitBlock - 1, splitBlock, 3*splitBlock + 7} {
		g := testPRG("bits-cells")
		secrets := make([]field.Elem, n)
		bits := make([]uint64, (n+63)/64)
		for c := range secrets {
			if g.Uint64()%3 == 0 {
				secrets[c], bits[c/64] = 1, bits[c/64]|1<<(c%64)
			}
		}
		ref := testPRG("bits-split")
		want := ShamirSplitVector(ref, secrets, 1, 3)
		next := ref.Uint64()
		for _, cuts := range [][]int{{0, n}, {0, n / 3, n / 3, n/3 + splitBlock/2, n}} {
			g := testPRG("bits-split")
			got := [3][]field.Elem{make([]field.Elem, n), make([]field.Elem, n), make([]field.Elem, n)}
			for k := 0; k+1 < len(cuts); k++ {
				from := cuts[k]
				ShamirSplitBits(g, bits, uint64(from), min(cuts[k+1], n)-from, func(phi, i int, shares []field.Elem) {
					copy(got[phi][from+i:], shares)
				})
			}
			for phi := range got {
				if !slices.Equal(got[phi], want[phi]) {
					t.Fatalf("n=%d cuts %v: server %d's shares differ from ShamirSplitVector's", n, cuts, phi)
				}
			}
			if g.Uint64() != next {
				t.Fatalf("n=%d cuts %v: the stream is not where ShamirSplitVector leaves it", n, cuts)
			}
		}
	}
}

func TestBigRoundTrip(t *testing.T) {
	q := new(big.Int).Lsh(big.NewInt(1), 256)
	q = q.Sub(q, big.NewInt(189)) // 2^256 - 189 is prime
	g := testPRG("big-rt")
	for i := 0; i < 20; i++ {
		// Build a ~250-bit secret deterministically from the PRG.
		s := new(big.Int)
		for w := 0; w < 4; w++ {
			s.Lsh(s, 62)
			s.Or(s, new(big.Int).SetUint64(g.Uint64()>>2))
		}
		s.Mod(s, q)
		shares, err := BigSplit(s, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if BigReconstruct(shares, q).Cmp(s) != 0 {
			t.Fatalf("big reconstruct mismatch for %v", s)
		}
	}
}

func TestBigSplitRejectsOutOfRange(t *testing.T) {
	q := big.NewInt(1000)
	if _, err := BigSplit(big.NewInt(1000), q, 2); err == nil {
		t.Fatal("expected range error for s == q")
	}
	if _, err := BigSplit(big.NewInt(-1), q, 2); err == nil {
		t.Fatal("expected range error for s < 0")
	}
}

func TestBigHomomorphism(t *testing.T) {
	q := new(big.Int).SetUint64(1<<62 - 57)
	a, b := big.NewInt(123456789), big.NewInt(987654321)
	sa, _ := BigSplit(a, q, 2)
	sb, _ := BigSplit(b, q, 2)
	sum := []*big.Int{
		new(big.Int).Add(sa[0], sb[0]),
		new(big.Int).Add(sa[1], sb[1]),
	}
	want := new(big.Int).Add(a, b)
	if BigReconstruct(sum, q).Cmp(want) != 0 {
		t.Fatal("additive homomorphism fails for big shares")
	}
}

func BenchmarkAdditiveSplitVector(b *testing.B) {
	g := testPRG("bench")
	secrets := make([]uint16, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdditiveSplitVector(g, secrets, 113, 2)
	}
}

func BenchmarkShamirSplitVector(b *testing.B) {
	g := testPRG("bench")
	secrets := make([]field.Elem, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShamirSplitVector(g, secrets, 1, 3)
	}
}
