package prg

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	s := SeedFromString("test-seed")
	a, b := New(s), New(s)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(SeedFromString("seed-a"))
	b := New(SeedFromString("seed-b"))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("independent streams collide %d/100 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	master := SeedFromString("master")
	c1 := master.Derive("psu")
	c2 := master.Derive("perm")
	if c1 == c2 {
		t.Fatal("derived seeds equal")
	}
	if c1 == master || c2 == master {
		t.Fatal("derived seed equals master")
	}
	// Derivation must be deterministic.
	if c1 != master.Derive("psu") {
		t.Fatal("derive not deterministic")
	}
}

func TestUint64nBounds(t *testing.T) {
	p := New(SeedFromString("bounds"))
	f := func(n uint64) bool {
		n = n%100000 + 1
		v := p.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	p := New(SeedFromString("pow2"))
	for i := 0; i < 1000; i++ {
		if v := p.Uint64n(64); v >= 64 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestRange1(t *testing.T) {
	p := New(SeedFromString("range1"))
	delta := uint64(113)
	seen := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		v := p.Range1(delta)
		if v < 1 || v > delta-1 {
			t.Fatalf("Range1 out of [1,%d]: %d", delta-1, v)
		}
		seen[v] = true
	}
	if len(seen) != int(delta-1) {
		t.Errorf("expected all %d values to appear, saw %d", delta-1, len(seen))
	}
}

func TestUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets; loose threshold to avoid flakes
	// (deterministic seed so it is actually stable).
	p := New(SeedFromString("uniformity"))
	const buckets, n = 16, 64000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[p.Uint64n(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile ≈ 37.7
	if chi2 > 37.7 {
		t.Errorf("chi2 = %f too high, distribution skewed: %v", chi2, counts)
	}
}

func TestFillUint16(t *testing.T) {
	p := New(SeedFromString("fill16"))
	dst := make([]uint16, 4096)
	p.FillUint16(dst, 113)
	for i, v := range dst {
		if v >= 113 {
			t.Fatalf("dst[%d]=%d out of range", i, v)
		}
	}
}

func TestBytes(t *testing.T) {
	p := New(SeedFromString("bytes"))
	b := make([]byte, 1000)
	p.Bytes(b)
	// Mean byte value should be near 127.5.
	sum := 0
	for _, v := range b {
		sum += int(v)
	}
	mean := float64(sum) / 1000
	if math.Abs(mean-127.5) > 15 {
		t.Errorf("mean byte value %f suspicious", mean)
	}
}

func TestNewSeedUnique(t *testing.T) {
	if NewSeed() == NewSeed() {
		t.Fatal("two fresh seeds are identical")
	}
}

// TestKnownAnswer pins the stream: the first words of AES-256-CTR under
// SHA-256("kat") with a zero IV, little-endian (checked against
// `openssl enc -aes-256-ctr`), and of one derived child. A build whose
// stream differs would desynchronise the two servers' PSU masks.
func TestKnownAnswer(t *testing.T) {
	root := SeedFromString("kat")
	for _, c := range []struct {
		name string
		seed Seed
		want [4]uint64
	}{
		{"root", root, [4]uint64{0x912854f244988101, 0x8e659ea3bad20952, 0x58951da34ce1a0f4, 0x24ebceeabad382d2}},
		{"child", root.Derive("child"), [4]uint64{0xa00a605a6978ce61, 0xcbb076b8f417a83c, 0x6c5d2e5a6fa8312c, 0x8a1f104d7965ed8f}},
	} {
		p := New(c.seed)
		for i, w := range c.want {
			if got := p.Uint64(); got != w {
				t.Errorf("%s word %d = %#016x, want %#016x", c.name, i, got, w)
			}
		}
	}
}

// TestBulkMatchesScalar interleaves the bulk fills with scalar draws at
// lengths that land on, before and after buffer boundaries; a twin PRG
// making only scalar calls must produce the same values and end at the
// same stream position. Ranges include ones that reject often.
func TestBulkMatchesScalar(t *testing.T) {
	const words = bufBytes / 8
	lens := []int{0, 1, 3, words - 1, words, words + 1, 2*words + 7, 5}
	for _, n := range []uint64{1, 2, 112, 113, 65520, 65536, 1<<61 - 1, 1<<63 + 1, ^uint64(0)} {
		bulk, scalar := New(SeedFromString("bulk")), New(SeedFromString("bulk"))
		for round, l := range lens {
			u64 := make([]uint64, l)
			bulk.Fill(u64, n)
			for i, v := range u64 {
				if w := scalar.Uint64n(n); v != w {
					t.Fatalf("n=%d round %d: Fill[%d] = %d, scalar %d", n, round, i, v, w)
				}
			}
			if n <= 1<<16 {
				u16 := make([]uint16, l)
				bulk.FillUint16(u16, n)
				for i, v := range u16 {
					if w := scalar.Uint64n(n); uint64(v) != w {
						t.Fatalf("n=%d round %d: FillUint16[%d] = %d, scalar %d", n, round, i, v, w)
					}
				}
				if n >= 2 {
					bulk.FillRange1(u16, n)
					for i, v := range u16 {
						if w := scalar.Range1(n); uint64(v) != w {
							t.Fatalf("n=%d round %d: FillRange1[%d] = %d, scalar %d", n, round, i, v, w)
						}
					}
				}
			}
			// A scalar draw between bulk calls shifts the next fill's offset.
			if a, b := bulk.Uint64(), scalar.Uint64(); a != b {
				t.Fatalf("n=%d round %d: streams apart after fills: %#x vs %#x", n, round, a, b)
			}
		}
	}
}

// TestUint64nRejects checks the rejection rule against its definition on
// a range where a quarter of all words are rejected: a word w is kept iff
// the low half of w·n is at least 2^64 mod n.
func TestUint64nRejects(t *testing.T) {
	const n = 1<<63 + 1<<62 // 2^64 mod n = 2^62
	p, raw := New(SeedFromString("reject")), New(SeedFromString("reject"))
	rejected := 0
	for i := 0; i < 2000; i++ {
		got := p.Uint64n(n)
		for {
			hi, lo := bits.Mul64(raw.Uint64(), n)
			if lo >= 1<<62 {
				if got != hi {
					t.Fatalf("draw %d = %d, want %d", i, got, hi)
				}
				break
			}
			rejected++
		}
		if got >= n {
			t.Fatalf("draw %d = %d out of range", i, got)
		}
	}
	if rejected < 400 || rejected > 1000 {
		t.Errorf("%d of ~3000 words rejected, want about a quarter", rejected)
	}
}

// TestRange1Uniform is a χ² test of Range1(65521) — the widest mask range
// a uint16 share admits — over 256 equal-width buckets of [1, 65520].
func TestRange1Uniform(t *testing.T) {
	const delta, buckets, n = 65521, 256, 1 << 18
	masks := make([]uint16, n)
	New(SeedFromString("chi2")).FillRange1(masks, delta)
	var counts [buckets]float64
	for _, v := range masks {
		if v < 1 || v > delta-1 {
			t.Fatalf("mask %d outside [1, %d]", v, delta-1)
		}
		counts[(int(v)-1)*buckets/(delta-1)]++
	}
	chi2 := 0.0
	for b, c := range counts {
		lo, hi := (b*(delta-1)+buckets-1)/buckets, ((b+1)*(delta-1)+buckets-1)/buckets
		expected := float64(n) * float64(hi-lo) / (delta - 1)
		chi2 += (c - expected) * (c - expected) / expected
	}
	// 255 degrees of freedom; the 99.9th percentile is ≈ 330.5.
	if chi2 > 330.5 {
		t.Errorf("chi2 = %.1f over %d buckets: Range1 is not uniform", chi2, buckets)
	}
}

func TestRefillDoesNotAllocate(t *testing.T) {
	p := New(SeedFromString("allocs"))
	dst := make([]uint64, 3*bufBytes/8+1) // every call crosses refills
	if a := testing.AllocsPerRun(20, func() { p.Fill(dst, 1<<61-1); p.Uint64() }); a != 0 {
		t.Errorf("%v allocations per fill across refills, want 0", a)
	}
}

func BenchmarkPRGUint64(b *testing.B) {
	p := New(SeedFromString("bench"))
	for i := 0; i < b.N; i++ {
		_ = p.Uint64()
	}
}

func BenchmarkPRGUint64n(b *testing.B) {
	p := New(SeedFromString("bench"))
	for i := 0; i < b.N; i++ {
		_ = p.Uint64n(112)
	}
}

func BenchmarkPRGFill(b *testing.B) {
	p := New(SeedFromString("bench"))
	dst := make([]uint64, 8192)
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		p.Fill(dst, 1<<61-1)
	}
}

func BenchmarkPRGFillUint16Delta(b *testing.B) {
	p := New(SeedFromString("bench"))
	dst := make([]uint16, 8192)
	b.SetBytes(int64(len(dst) * 2))
	for i := 0; i < b.N; i++ {
		p.FillUint16(dst, 113)
	}
}
