// Package levec owns the little-endian vector layout that the frame
// codec and the chunk store share: n elements of w bytes each, element
// i at bytes [i·w, (i+1)·w), least significant byte first. w is 1, 2, 4
// or 8 and at most the element's size.
//
// Put and Get move whole 64-bit words, 8/w elements per word, so 8-byte
// elements move at about the speed of copy; only a tail shorter than a
// step goes element by element.
package levec

import (
	"encoding/binary"
	"math/bits"
)

// Elem is an element type a vector can hold.
type Elem interface{ ~uint16 | ~uint32 | ~uint64 }

// block is how many elements Width ORs together before it checks
// whether the vector already needs the full size of its element type.
const block = 256

// size is the size of T in bytes.
func size[T Elem]() int { return bits.Len64(uint64(^T(0))) / 8 }

// Width returns the narrowest of 1, 2, 4 and 8 bytes that holds every
// element of v (1 for an empty v). It stops at the first block of
// elements that needs the full size of T: a vector of field elements
// decides after one block.
func Width[T Elem](v []T) int {
	full := size[T]()
	var or T
	for len(v) > 0 {
		blk := v[:min(len(v), block)]
		v = v[len(blk):]
		var a, b, c, d T
		for ; len(blk) >= 8; blk = blk[8:] {
			s := blk[:8:8]
			a, b, c, d = a|s[0]|s[4], b|s[1]|s[5], c|s[2]|s[6], d|s[3]|s[7]
		}
		for _, x := range blk {
			a |= x
		}
		if or |= a | b | c | d; uint64(or)>>(4*full) != 0 {
			return full
		}
	}
	w := 1
	for uint64(or)>>(8*w) != 0 {
		w *= 2
	}
	return w
}

// Put writes v into dst at width w: len(v)·w bytes, one 64-bit store per
// 8/w elements. Every element must fit in w bytes (w ≥ Width(v)), and
// dst must hold len(v)·w bytes. It returns the OR of v's elements, so a
// producer that writes a vector a block at a time can check its cells
// against w without scanning them again.
func Put[T Elem](dst []byte, v []T, w int) (or T) {
	dst = dst[:len(v)*w]
	switch w {
	case 8:
		for ; len(v) >= 4 && len(dst) >= 32; v, dst = v[4:], dst[32:] {
			binary.LittleEndian.PutUint64(dst[0:8], uint64(v[0]))
			binary.LittleEndian.PutUint64(dst[8:16], uint64(v[1]))
			binary.LittleEndian.PutUint64(dst[16:24], uint64(v[2]))
			binary.LittleEndian.PutUint64(dst[24:32], uint64(v[3]))
			or |= v[0] | v[1] | v[2] | v[3]
		}
	case 4:
		for ; len(v) >= 4 && len(dst) >= 16; v, dst = v[4:], dst[16:] {
			binary.LittleEndian.PutUint64(dst[0:8], uint64(v[0])|uint64(v[1])<<32)
			binary.LittleEndian.PutUint64(dst[8:16], uint64(v[2])|uint64(v[3])<<32)
			or |= v[0] | v[1] | v[2] | v[3]
		}
	case 2:
		for ; len(v) >= 4 && len(dst) >= 8; v, dst = v[4:], dst[8:] {
			binary.LittleEndian.PutUint64(dst[0:8], uint64(v[0])|uint64(v[1])<<16|uint64(v[2])<<32|uint64(v[3])<<48)
			or |= v[0] | v[1] | v[2] | v[3]
		}
	case 1:
		for ; len(v) >= 8 && len(dst) >= 8; v, dst = v[8:], dst[8:] {
			binary.LittleEndian.PutUint64(dst[0:8], uint64(v[0])|uint64(v[1])<<8|uint64(v[2])<<16|uint64(v[3])<<24|
				uint64(v[4])<<32|uint64(v[5])<<40|uint64(v[6])<<48|uint64(v[7])<<56)
			or |= v[0] | v[1] | v[2] | v[3] | v[4] | v[5] | v[6] | v[7]
		}
	}
	for i, x := range v {
		for b := range w {
			dst[i*w+b] = byte(uint64(x) >> (8 * b))
		}
		or |= x
	}
	return or
}

// Get fills dst from src at width w, the inverse of Put: one 64-bit load
// per 8/w elements. src must hold len(dst)·w bytes; bytes past them are
// not read.
func Get[T Elem](dst []T, src []byte, w int) {
	src = src[:len(dst)*w]
	switch w {
	case 8:
		for ; len(dst) >= 4 && len(src) >= 32; dst, src = dst[4:], src[32:] {
			dst[0] = T(binary.LittleEndian.Uint64(src[0:8]))
			dst[1] = T(binary.LittleEndian.Uint64(src[8:16]))
			dst[2] = T(binary.LittleEndian.Uint64(src[16:24]))
			dst[3] = T(binary.LittleEndian.Uint64(src[24:32]))
		}
	case 4:
		for ; len(dst) >= 4 && len(src) >= 16; dst, src = dst[4:], src[16:] {
			x, y := binary.LittleEndian.Uint64(src[0:8]), binary.LittleEndian.Uint64(src[8:16])
			dst[0], dst[1], dst[2], dst[3] = T(uint32(x)), T(x>>32), T(uint32(y)), T(y>>32)
		}
	case 2:
		for ; len(dst) >= 4 && len(src) >= 8; dst, src = dst[4:], src[8:] {
			x := binary.LittleEndian.Uint64(src[0:8])
			dst[0], dst[1], dst[2], dst[3] = T(uint16(x)), T(uint16(x>>16)), T(uint16(x>>32)), T(x>>48)
		}
	case 1:
		for ; len(dst) >= 8 && len(src) >= 8; dst, src = dst[8:], src[8:] {
			x := binary.LittleEndian.Uint64(src[0:8])
			dst[0], dst[1], dst[2], dst[3] = T(uint8(x)), T(uint8(x>>8)), T(uint8(x>>16)), T(uint8(x>>24))
			dst[4], dst[5], dst[6], dst[7] = T(uint8(x>>32)), T(uint8(x>>40)), T(uint8(x>>48)), T(x>>56)
		}
	}
	for i := range dst {
		var x uint64
		for b := w - 1; b >= 0; b-- {
			x = x<<8 | uint64(src[i*w+b])
		}
		dst[i] = T(x)
	}
}
