package field

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestFoldBound(t *testing.T) {
	for _, x := range []uint64{0, 1, P - 1, P, P + 7, 8 * P, ^uint64(0)} {
		if f := Fold(x); f > P+7 || f%P != x%P {
			t.Errorf("Fold(%d) = %d: want ≤ P+7 and congruent", x, f)
		}
	}
}

// TestAddVecLazyOverflowEdge adds many vectors of P−1 — every pass runs at
// the largest values the fold admits — into accumulators that start at
// the largest 64-bit values, and compares with canonical additions.
func TestAddVecLazyOverflowEdge(t *testing.T) {
	for _, m := range []int{0, 1, 3, 4, 5, 7, 8, 9, 64, 301} {
		srcs := make([][]Elem, m)
		for j := range srcs {
			srcs[j] = []Elem{0, P - 1, P - 1, Elem(j), P - 1}
		}
		acc := []uint64{^uint64(0), ^uint64(0), 0, 5}
		want := make([]Elem, len(acc))
		for i, a := range acc {
			want[i] = Reduce(a)
			for _, src := range srcs {
				want[i] = Add(want[i], src[1+i])
			}
		}
		AddVecLazy(acc, srcs, 1, 5)
		for i, a := range acc {
			if Reduce(a) != want[i] {
				t.Errorf("m=%d: acc[%d] ≡ %d, want %d", m, i, Reduce(a), want[i])
			}
		}
	}
}

func TestMulAddVecAgainstScalar(t *testing.T) {
	src := []Elem{0, 1, P - 1, P - 1, 12345, P / 2}
	a := []uint64{0, P - 1, P - 1, ^uint64(0), P, 1 << 63}
	for _, x := range []Elem{0, 1, 2, 7, 8, 9, P - 1} {
		dst := make([]Elem, len(src))
		MulAddVec(dst, src, x, a)
		for i := range dst {
			if want := Add(Mul(src[i], x), Reduce(a[i])); dst[i] != want {
				t.Errorf("x=%d: dst[%d] = %d, want %d", x, i, dst[i], want)
			}
		}
		// In place: the Horner accumulator is its own source.
		acc := append([]Elem(nil), src...)
		MulAddVec(acc, acc, x, a)
		for i := range acc {
			if acc[i] != dst[i] {
				t.Errorf("x=%d: in-place step differs at %d", x, i)
			}
		}
	}
}

func TestReduce128AgainstBig(t *testing.T) {
	check := func(hi, lo uint64) bool {
		v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		v.Add(v, new(big.Int).SetUint64(lo))
		return Reduce128(hi, lo) == v.Mod(v, bigP).Uint64()
	}
	for _, c := range [][2]uint64{{0, 0}, {0, P}, {^uint64(0), ^uint64(0)}, {1 << 61, 0}, {1<<58 - 1, ^uint64(0)}} {
		if !check(c[0], c[1]) {
			t.Errorf("Reduce128(%#x, %#x) wrong", c[0], c[1])
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestMulAdd128 accumulates seven products of a canonical weight and an
// arbitrary 64-bit value — the most the accumulator is specified for.
func TestMulAdd128(t *testing.T) {
	f := func(w, s [7]uint64) bool {
		var hi, lo uint64
		want := new(big.Int)
		for k := range w {
			w[k] = Reduce(w[k])
			hi, lo = MulAdd128(hi, lo, w[k], s[k])
			want.Add(want, new(big.Int).Mul(new(big.Int).SetUint64(w[k]), new(big.Int).SetUint64(s[k])))
		}
		return Reduce128(hi, lo) == want.Mod(want, bigP).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	var w, s [7]uint64
	for k := range w {
		w[k], s[k] = P-1, ^uint64(0)
	}
	if !f(w, s) {
		t.Error("seven maximal products overflow the accumulator")
	}
}
