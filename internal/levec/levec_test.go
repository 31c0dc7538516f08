package levec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// lengths cover every tail length of the word loops and both sides of
// one, two and four of Width's blocks.
var lengths = func() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025)
}()

// refPut is the element-at-a-time layout Put must match byte for byte.
func refPut[T Elem](v []T, w int) []byte {
	var out []byte
	for _, x := range v {
		out = append(out, binary.LittleEndian.AppendUint64(nil, uint64(x))[:w]...)
	}
	return out
}

// vec returns n random elements of w bytes, or, if narrow, that fit in
// half of w bytes (in one byte at w = 1); the one at index widest has
// its top bit set, so it needs all w (none when widest is out of range).
func vec[T Elem](n, w, widest int, narrow bool) []T {
	shift := 64 - 8*w
	if narrow {
		shift = 64 - 4*max(w, 2)
	}
	v := make([]T, n)
	for i := range v {
		v[i] = T((uint64(n*41+i+1) * 0x9E3779B97F4A7C15) >> shift)
	}
	if widest >= 0 && widest < n {
		v[widest] |= T(uint64(1) << (8*w - 1))
	}
	return v
}

func roundTrip[T Elem](t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		if w > size[T]() {
			continue
		}
		for _, n := range lengths {
			// Full-width and narrow elements, the widest one first,
			// last, and only in the last block.
			for _, narrow := range []bool{false, true} {
				for _, widest := range []int{0, n - 1, (n - 1) / block * block} {
					v := vec[T](n, w, widest, narrow)
					name := fmt.Sprintf("%T width %d, %d cells, narrow %t, widest at %d", v, w, n, narrow, widest)
					if got := Width(v); n > 0 && got != w {
						t.Fatalf("%s: Width = %d", name, got)
					}
					// Put writes exactly its len(v)·w bytes: guard bytes on
					// both sides stay untouched.
					buf := bytes.Repeat([]byte{0xA5}, n*w+16)
					or := Put(buf[8:8+n*w], v, w)
					if want := refPut(v, w); !bytes.Equal(buf[8:8+n*w], want) {
						t.Fatalf("%s: Put wrote %x, want %x", name, buf[8:8+n*w], want)
					}
					var want T
					for _, x := range v {
						want |= x
					}
					if or != want {
						t.Fatalf("%s: Put returned OR %#x, want %#x", name, or, want)
					}
					if guard := bytes.Repeat([]byte{0xA5}, 8); !bytes.Equal(buf[:8], guard) || !bytes.Equal(buf[8+n*w:], guard) {
						t.Fatalf("%s: Put wrote outside its bytes", name)
					}
					// Get reads only its len(dst)·w bytes: the trailing guard
					// bytes must not leak into the last element.
					out := make([]T, n)
					Get(out, buf[8:], w)
					if !slices.Equal(out, v) {
						t.Fatalf("%s: Get = %v, want %v", name, out, v)
					}
				}
			}
		}
	}
}

// TestRoundTrip drives every element type and width through lengths
// that reach each word loop, its tail and Width's block boundary, with
// elements random at the full width and with narrow ones whose widest
// sits at the front, at the back and alone in the last block, against
// an element-at-a-time reference.
func TestRoundTrip(t *testing.T) {
	roundTrip[uint16](t)
	roundTrip[uint32](t)
	roundTrip[uint64](t)
	type share uint16 // a named element type, as the ~ constraint allows
	roundTrip[share](t)
}

// TestWidth pins the width rule at every boundary, for an empty vector,
// and for a full-width element past the first block (the early exit
// must not stop before the block that holds it).
func TestWidth(t *testing.T) {
	for _, tc := range []struct {
		max  uint64
		want int
	}{{0, 1}, {255, 1}, {256, 2}, {1<<16 - 1, 2}, {1 << 16, 4}, {1<<32 - 1, 4}, {1 << 32, 8}, {1<<64 - 1, 8}} {
		for _, at := range []int{0, 3, 255, 256, 700} {
			v := make([]uint64, 701)
			v[at] = tc.max
			if got := Width(v); got != tc.want {
				t.Errorf("max %d at %d: Width = %d, want %d", tc.max, at, got, tc.want)
			}
		}
	}
	if got := Width([]uint16(nil)); got != 1 {
		t.Errorf("empty vector: Width = %d, want 1", got)
	}
	if got := Width([]uint32{1 << 31}); got != 4 {
		t.Errorf("uint32 at its top bit: Width = %d, want 4", got)
	}
}

// BenchmarkKernel times Width, Put and Get at 2^18 cells, at the
// widths the query vectors take, beside copy: the memory roof for
// moving the same bytes.
func BenchmarkKernel(b *testing.B) {
	benchKernel[uint64](b, "u64", 8)
	benchKernel[uint32](b, "u32", 2)
	benchKernel[uint16](b, "u16", 1)
}

func benchKernel[T Elem](b *testing.B, name string, w int) {
	const n = 1 << 18
	v, out := vec[T](n, w, 0, false), make([]T, n)
	buf, dst := make([]byte, n*w), make([]byte, n*w)
	Put(buf, v, w)
	for _, c := range []struct {
		op string
		f  func()
	}{
		{"width", func() { Width(v) }},
		{"put", func() { Put(dst, v, w) }},
		{"get", func() { Get(out, buf, w) }},
		{"copy", func() { copy(dst, buf) }},
	} {
		b.Run(fmt.Sprintf("%s/w%d/%s", name, w, c.op), func(b *testing.B) {
			b.SetBytes(int64(n * w))
			for range b.N {
				c.f()
			}
		})
	}
}
