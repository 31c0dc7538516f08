// Package slicepool recycles scratch slices (frames, chunk files, windows).
package slicepool

import (
	"math/bits"
	"sync"
)

// Pool recycles slices of T by size class: class c holds capacities of
// bit length c+1, so a small request never pins a large buffer. The zero
// Pool is ready to use.
type Pool[T any] struct{ classes [bits.UintSize]sync.Pool }

// Get returns an n-element slice holding whatever its last user left.
func (p *Pool[T]) Get(n int) []T {
	if b, _ := p.classes[bits.Len(uint(n)|1)-1].Get().(*[]T); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]T, n)
}

// Put hands back a slice (regrown or not) that nothing references any more.
func (p *Pool[T]) Put(b []T) { p.classes[bits.Len(uint(cap(b))|1)-1].Put(&b) }
