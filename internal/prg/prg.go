// Package prg implements the deterministic pseudorandom number generator
// PRG of the paper (§3.1): a seeded, deterministic, efficient generator.
//
// Construction: the stream is the keystream of AES-256-CTR keyed with
// the 32-byte seed (IV = 0), read as little-endian 64-bit words. The
// same seed always yields the same stream, which is what the PSU
// protocol needs — both servers derive identical masking values
// rand[i] ∈ [1, δ-1] without communicating (paper §7, Eq. 18). Seeds
// themselves are derived with SHA-256 (SeedFromString, Derive).
//
// Every bounded draw maps one word w to ⌊w·n / 2^64⌋ and rejects the
// few words whose low product half falls under 2^64 mod n, so the
// bulk fills consume exactly the words the scalar calls would.
package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// Seed is the 32-byte PRG seed.
type Seed [32]byte

// NewSeed draws a fresh random seed from the OS entropy source.
func NewSeed() Seed {
	var s Seed
	if _, err := rand.Read(s[:]); err != nil {
		panic("prg: OS entropy unavailable: " + err.Error())
	}
	return s
}

// SeedFromString derives a seed deterministically from a label. Useful in
// tests and for deriving independent sub-streams from a master seed.
func SeedFromString(label string) Seed {
	return Seed(sha256.Sum256([]byte(label)))
}

// Derive produces an independent child seed from a parent seed and label.
func (s Seed) Derive(label string) Seed {
	h := sha256.New()
	h.Write(s[:])
	h.Write([]byte{0x1f}) // domain separator
	h.Write([]byte(label))
	var out Seed
	h.Sum(out[:0])
	return out
}

// bufBytes is how much keystream one refill produces: large enough to
// amortise the cipher call, small enough to stay in L1.
const bufBytes = 4096

// zeros is the plaintext every refill encrypts; it is only ever read.
var zeros [bufBytes]byte

// PRG is a deterministic stream of pseudorandom 64-bit values.
// It is NOT safe for concurrent use; create one per goroutine.
type PRG struct {
	ks  cipher.Stream
	off int // next unread byte of buf; always a multiple of 8
	buf [bufBytes]byte
}

// New returns a PRG positioned at the start of the stream for seed.
func New(seed Seed) *PRG {
	blk, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("prg: " + err.Error()) // a 32-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	return &PRG{ks: cipher.NewCTR(blk, iv[:]), off: bufBytes}
}

// refill replaces the buffer with the next bufBytes of keystream.
func (p *PRG) refill() {
	p.ks.XORKeyStream(p.buf[:], zeros[:])
	p.off = 0
}

// Uint64 returns the next 64 pseudorandom bits.
func (p *PRG) Uint64() uint64 {
	if p.off == bufBytes {
		p.refill()
	}
	v := binary.LittleEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return v
}

// Uint64n returns a uniform value in [0, n) by multiply-shift with
// rejection (no modulo bias). n must be > 0.
func (p *PRG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prg: Uint64n(0)")
	}
	hi, lo := bits.Mul64(p.Uint64(), n)
	if lo < n { // only then can lo be under the bound 2^64 mod n < n
		for bound := -n % n; lo < bound; {
			hi, lo = bits.Mul64(p.Uint64(), n)
		}
	}
	return hi
}

// Range1 returns a uniform value in [1, n-1] — the PSU mask domain
// "between 1 and δ-1" (paper §4, servers' parameter (iv)). n must be >= 3.
func (p *PRG) Range1(n uint64) uint64 {
	return 1 + p.Uint64n(n-1)
}

// fill sets dst[i] = base + Uint64n(n) for every i, straight off the
// buffer and with the rejection bound computed once.
func fill[T uint16 | uint64](p *PRG, dst []T, n uint64, base T) {
	if n == 0 {
		panic("prg: fill with empty range")
	}
	bound := -n % n
	for i := 0; i < len(dst); {
		if p.off == bufBytes {
			p.refill()
		}
		src := p.buf[p.off:]
		w := 0
		for ; w+8 <= len(src) && i < len(dst); w += 8 {
			hi, lo := bits.Mul64(binary.LittleEndian.Uint64(src[w:]), n)
			if lo >= bound {
				dst[i] = base + T(hi)
				i++
			}
		}
		p.off += w
	}
}

// Fill fills dst with uniform values in [0, n).
func (p *PRG) Fill(dst []uint64, n uint64) { fill(p, dst, n, 0) }

// FillUint16 fills dst with uniform values in [0, n), n <= 65536.
func (p *PRG) FillUint16(dst []uint16, n uint64) {
	if n > 1<<16 {
		panic("prg: FillUint16 range too large")
	}
	fill(p, dst, n, 0)
}

// FillRange1 fills dst with uniform values in [1, n-1], the bulk form of
// Range1. 2 <= n <= 65536.
//
// Not inlined: through an inlined call to the generic fill, a caller's
// stack scratch escapes to the heap (one allocation per mask block).
//
//go:noinline
func (p *PRG) FillRange1(dst []uint16, n uint64) {
	if n < 2 || n > 1<<16 {
		panic("prg: FillRange1 range out of [2, 65536]")
	}
	fill(p, dst, n-1, 1)
}

// Bytes fills dst with pseudorandom bytes.
func (p *PRG) Bytes(dst []byte) {
	for i := 0; i < len(dst); i += 8 {
		v := p.Uint64()
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(v >> (8 * j))
		}
	}
}
