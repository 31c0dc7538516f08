package slicepool

import "testing"

// TestPoolSizeClasses: Get returns exactly n elements; a buffer comes
// back only to requests of its own size class, and only when it is big
// enough — so a small request never pins a large buffer and a large one
// is never handed a short slice.
func TestPoolSizeClasses(t *testing.T) {
	var p Pool[uint16]
	for _, n := range []int{0, 1, 2, 3, 1000, 1 << 16} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned %d elements", n, len(b))
		}
		p.Put(b)
	}
	// sync.Pool may drop a Put (it does at random under the race
	// detector), so a reused buffer is recognised, never required.
	big := make([]uint16, 1000, 1000)
	big[0] = 0xBEEF
	p.Put(big)
	if b := p.Get(1023); len(b) != 1023 { // same class (bit length 10), too small to reuse
		t.Fatalf("Get(1023) returned %d elements", len(b))
	}
	p.Put(big)
	if b := p.Get(10); cap(b) >= 1000 {
		t.Fatal("a 10-element request was handed the 1000-element buffer")
	}
	if b := p.Get(600); cap(b) == 1000 && b[0] != 0xBEEF {
		t.Fatal("a reused buffer lost its contents: Get must not clear")
	}
}
