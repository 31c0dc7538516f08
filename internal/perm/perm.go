// Package perm implements the permutation functions PF of the paper
// (§3.1) including the initiator's composed quadruple of Equation (1):
//
//	PF_s1 ⊙ PF_db1 = PF_s2 ⊙ PF_db2 = PF_i
//
// where ⊙ is function composition applied owner-side first:
// (PF_s ⊙ PF_db)(i) = PF_s(PF_db(i)). Owners permute data with PF_db
// before outsourcing; servers permute results with PF_s before replying;
// the net effect is the secret permutation PF_i that neither side can
// invert alone. This is the mechanism behind PSI-count privacy and the
// count/sum verification alignment (paper §4, §6.5).
package perm

import (
	"errors"
	"fmt"

	"prism/internal/prg"
)

// Perm is a bijection on [0, n): p[i] is the image of i.
type Perm []uint32

// Identity returns the identity permutation on n elements.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// Random returns a uniformly random permutation on n elements drawn from
// the PRG via Fisher-Yates.
func Random(g *prg.PRG, n int) Perm {
	p := Identity(n)
	for i := n - 1; i > 0; i-- {
		j := int(g.Uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FromSeed derives a permutation deterministically from a seed and label.
func FromSeed(seed prg.Seed, label string, n int) Perm {
	return Random(prg.New(seed.Derive(label)), n)
}

// Len returns the size of the permuted set.
func (p Perm) Len() int { return len(p) }

// Image returns p(i).
func (p Perm) Image(i int) int { return int(p[i]) }

// Inverse returns q with q(p(i)) = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = uint32(i)
	}
	return q
}

// Compose returns the composition r = p ⊙ q, i.e. r(i) = p(q(i)).
// q is applied first (owner-side), p second (server-side).
func Compose(p, q Perm) (Perm, error) {
	if len(p) != len(q) {
		return nil, fmt.Errorf("perm: compose size mismatch %d != %d", len(p), len(q))
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r, nil
}

// Validate checks that p is a bijection on [0, len(p)).
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if int(v) >= len(p) {
			return fmt.Errorf("perm: entry %d out of range: %d", i, v)
		}
		if seen[v] {
			return fmt.Errorf("perm: duplicate image %d", v)
		}
		seen[v] = true
	}
	return nil
}

// Equal reports whether two permutations are identical.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Apply places src[i] at dst[p(i)] and returns dst. If dst is nil a new
// slice is allocated. Generic over the share representations used in Prism.
func Apply[T any](p Perm, src, dst []T) []T {
	if dst == nil {
		dst = make([]T, len(src))
	}
	for i, v := range src {
		dst[p[i]] = v
	}
	return dst
}

// Quad is the initiator's permutation quadruple of Equation (1).
type Quad struct {
	PFi  Perm // the composed secret permutation (initiator-only)
	DB1  Perm // PF_db1, distributed to all DB owners
	DB2  Perm // PF_db2, distributed to all DB owners
	S1   Perm // PF_s1, distributed to all servers
	S2   Perm // PF_s2, distributed to all servers
	size int
}

// NewQuad generates PF_i, PF_db1, PF_db2 uniformly at random and solves
// Equation (1) for PF_s1 = PF_i ⊙ PF_db1⁻¹ and PF_s2 = PF_i ⊙ PF_db2⁻¹,
// so that PF_s1 ⊙ PF_db1 = PF_s2 ⊙ PF_db2 = PF_i.
func NewQuad(g *prg.PRG, n int) (*Quad, error) {
	if n <= 0 {
		return nil, errors.New("perm: quad size must be positive")
	}
	pfi := Random(g, n)
	db1 := Random(g, n)
	db2 := Random(g, n)
	s1, err := Compose(pfi, db1.Inverse())
	if err != nil {
		return nil, err
	}
	s2, err := Compose(pfi, db2.Inverse())
	if err != nil {
		return nil, err
	}
	return &Quad{PFi: pfi, DB1: db1, DB2: db2, S1: s1, S2: s2, size: n}, nil
}

// Check verifies Equation (1) holds for the quad.
func (q *Quad) Check() error {
	c1, err := Compose(q.S1, q.DB1)
	if err != nil {
		return err
	}
	c2, err := Compose(q.S2, q.DB2)
	if err != nil {
		return err
	}
	if !c1.Equal(q.PFi) || !c2.Equal(q.PFi) {
		return errors.New("perm: Equation (1) violated")
	}
	return nil
}
