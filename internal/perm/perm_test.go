package perm

import (
	"testing"
	"testing/quick"

	"prism/internal/prg"
)

func testPRG(label string) *prg.PRG {
	return prg.New(prg.SeedFromString(label))
}

func TestIdentity(t *testing.T) {
	p := Identity(10)
	for i := 0; i < 10; i++ {
		if p.Image(i) != i {
			t.Fatalf("identity(%d) = %d", i, p.Image(i))
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomIsBijection(t *testing.T) {
	g := testPRG("bijection")
	for _, n := range []int{1, 2, 5, 100, 4096} {
		p := Random(g, n)
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestInverse(t *testing.T) {
	g := testPRG("inverse")
	f := func(seed uint16) bool {
		n := int(seed%500) + 1
		p := Random(g, n)
		q := p.Inverse()
		for i := 0; i < n; i++ {
			if q.Image(p.Image(i)) != i || p.Image(q.Image(i)) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComposeAssociativity(t *testing.T) {
	g := testPRG("assoc")
	n := 64
	a, b, c := Random(g, n), Random(g, n), Random(g, n)
	ab, _ := Compose(a, b)
	bc, _ := Compose(b, c)
	left, _ := Compose(ab, c)
	right, _ := Compose(a, bc)
	if !left.Equal(right) {
		t.Fatal("composition not associative")
	}
}

func TestComposeSizeMismatch(t *testing.T) {
	if _, err := Compose(Identity(3), Identity(4)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestApplyRoundTrip(t *testing.T) {
	g := testPRG("apply")
	p := Random(g, 257)
	src := make([]uint64, 257)
	for i := range src {
		src[i] = uint64(i * 31)
	}
	permuted := Apply(p, src, nil)
	viaInv := Apply(p.Inverse(), permuted, nil)
	for i := range src {
		if viaInv[i] != src[i] {
			t.Fatalf("inverse apply mismatch at %d", i)
		}
	}
}

func TestApplyMovesValues(t *testing.T) {
	g := testPRG("moves")
	p := Random(g, 1000)
	src := make([]uint16, 1000)
	for i := range src {
		src[i] = uint16(i)
	}
	dst := Apply(p, src, nil)
	for i := range src {
		if dst[p.Image(i)] != src[i] {
			t.Fatalf("value %d not at image position", i)
		}
	}
}

func TestFromSeedDeterministic(t *testing.T) {
	s := prg.SeedFromString("master")
	a := FromSeed(s, "pf", 100)
	b := FromSeed(s, "pf", 100)
	if !a.Equal(b) {
		t.Fatal("FromSeed not deterministic")
	}
	c := FromSeed(s, "other", 100)
	if a.Equal(c) {
		t.Fatal("different labels gave same permutation")
	}
}

// TestQuadEquation1 verifies the initiator's composition relation
// PF_s1 ⊙ PF_db1 = PF_s2 ⊙ PF_db2 = PF_i (paper §4 Equation 1).
func TestQuadEquation1(t *testing.T) {
	g := testPRG("quad")
	for _, n := range []int{1, 2, 16, 1000} {
		q, err := NewQuad(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, p := range []Perm{q.PFi, q.DB1, q.DB2, q.S1, q.S2} {
			if err := p.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

// TestQuadAlignment is the protocol-level property the count verification
// relies on: data permuted owner-side by DB1 then server-side by S1 lands
// at the same positions as data permuted by DB2 then S2.
func TestQuadAlignment(t *testing.T) {
	g := testPRG("alignment")
	n := 512
	q, err := NewQuad(g, n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(i)
	}
	via1 := Apply(q.S1, Apply(q.DB1, src, nil), nil)
	via2 := Apply(q.S2, Apply(q.DB2, src, nil), nil)
	viaI := Apply(q.PFi, src, nil)
	for i := range src {
		if via1[i] != via2[i] || via1[i] != viaI[i] {
			t.Fatalf("alignment broken at %d: %d %d %d", i, via1[i], via2[i], viaI[i])
		}
	}
}

func TestQuadZeroSize(t *testing.T) {
	if _, err := NewQuad(testPRG("zero"), 0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := Identity(5)
	p[2] = 9
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range entry not caught")
	}
	p = Identity(5)
	p[2] = 3 // duplicate
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate entry not caught")
	}
}

func BenchmarkApply1M(b *testing.B) {
	g := testPRG("bench")
	n := 1 << 20
	p := Random(g, n)
	src := make([]uint16, n)
	dst := make([]uint16, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Apply(p, src, dst)
	}
}
