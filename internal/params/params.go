// Package params implements Prism's initiator (paper §3.2 entity 3 and
// §4): one-time generation of all protocol parameters and their
// distribution as per-entity views that enforce the paper's knowledge
// asymmetry:
//
//   - DB owners know m, δ, η, the domain, PF_db1/PF_db2, the owner-slot
//     permutation PF, and the polynomial F(x) — but never g, α, η′,
//     PF_s1/PF_s2 or the servers' PRG seed.
//   - Servers know m, δ, g, η′ (= α·η), PF, PF_s1/PF_s2, additive shares
//     of m, and the common PRG seed — but never η or PF_db1/PF_db2.
//   - The announcer knows only δ and the big modulus Q.
package params

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"prism/internal/modmath"
	"prism/internal/opoly"
	"prism/internal/perm"
	"prism/internal/prg"
)

// NumServers is Prism's server count: two additive-share servers plus a
// third that only holds Shamir shares so degree-2 aggregation results
// remain reconstructible (paper §3.2).
const NumServers = 3

// Config drives parameter generation.
type Config struct {
	NumOwners  int      // m > 2 (the multi-owner setting of the paper)
	DomainSize uint64   // b = |Dom(A_c)|
	Delta      uint64   // additive group prime δ > m; 0 → paper default 113 (or next prime > m)
	Alpha      uint64   // η' = α·η with α > 1; 0 → 13 (paper example's α)
	MaxAgg     uint64   // upper bound on aggregation-attribute values (sizes Q); 0 → 2^32
	CoefBound  uint64   // opoly coefficient bound; 0 → 1000
	Seed       prg.Seed // master seed; zero value → fresh OS entropy
}

// System is the initiator's complete view. It is never shipped to any
// other entity; use the For* methods to derive entity views.
//
// In a multi-group deployment (GenerateGroups) each group has its own
// System over its slice of the natural domain: B is the group's cell
// count, Group its index and Start its first natural cell. The
// protocol-wide parameters (δ, η, η′, g, α, m-shares, PF, F(x), Q, the
// PSU seed) are identical across groups — they derive from the same
// master seed — so owners can compare masked values across groups and
// the single shared announcer serves every group.
type System struct {
	M        int
	B        uint64
	Delta    uint64
	Eta      uint64
	EtaPrime uint64
	G        uint64
	Alpha    uint64

	Group int    // server-group index (0 in single-group deployments)
	Start uint64 // first natural domain cell owned by this group

	MShares [2]uint16 // additive shares of m for S1, S2 (§4: "provides additive shares of m to servers")

	Quad *perm.Quad // PF_i, PF_db1, PF_db2, PF_s1, PF_s2 over b cells (Eq. 1)
	PF   perm.Perm  // owner-slot permutation for max/median (size m)

	Poly     *opoly.Poly // order-preserving F(x), degree m+1
	Q        *big.Int    // prime modulus for big additive shares, > 2·F(MaxAgg+1)
	MaxAgg   uint64
	PSUSeed  prg.Seed // servers' common PRG seed (PSU masks); unknown to owners
	PermSeed prg.Seed // retained for audit/regeneration
}

var zeroSeed prg.Seed

// Generate runs the initiator. Deterministic given a non-zero Config.Seed.
func Generate(cfg Config) (*System, error) {
	seed := cfg.Seed
	if seed == zeroSeed {
		seed = prg.NewSeed()
	}
	return generate(cfg, seed, "quad")
}

// generate is Generate with the master seed resolved and the quad
// derivation label explicit, so multi-group generation can give each
// group its own cell permutations while every seed-derived
// protocol-wide parameter stays shared.
func generate(cfg Config, seed prg.Seed, quadLabel string) (*System, error) {
	if cfg.NumOwners < 2 {
		return nil, errors.New("params: need at least 2 DB owners")
	}
	if cfg.DomainSize == 0 {
		return nil, errors.New("params: domain size must be positive")
	}
	delta := cfg.Delta
	if delta == 0 {
		delta = 113 // the paper's experimental δ
	}
	if delta <= uint64(cfg.NumOwners) {
		delta = modmath.NextPrime(uint64(cfg.NumOwners) + 1)
	}
	if !modmath.IsPrime(delta) {
		return nil, fmt.Errorf("params: δ=%d is not prime", delta)
	}
	if delta > 1<<16 {
		return nil, fmt.Errorf("params: δ=%d too large for uint16 share encoding", delta)
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 13
	}
	if alpha < 2 {
		return nil, errors.New("params: α must be > 1")
	}
	eta, err := modmath.FindEta(delta, delta)
	if err != nil {
		return nil, fmt.Errorf("params: finding η: %w", err)
	}
	g, err := modmath.SubgroupGenerator(delta, eta)
	if err != nil {
		return nil, fmt.Errorf("params: finding generator: %w", err)
	}
	hi, etaPrime := bits.Mul64(alpha, eta)
	if hi != 0 {
		return nil, fmt.Errorf("params: η'=α·η overflows 64 bits (α=%d, η=%d)", alpha, eta)
	}
	if err := CheckEtaPrime(etaPrime); err != nil {
		return nil, err
	}

	genPRG := prg.New(seed.Derive("params"))

	// Additive shares of m in Z_δ.
	s1 := genPRG.Uint64n(delta)
	s2 := (uint64(cfg.NumOwners)%delta + delta - s1) % delta

	// Permutation quadruple over the b domain cells (Eq. 1).
	if cfg.DomainSize > 1<<31 {
		return nil, errors.New("params: domain too large for uint32 permutations")
	}
	quad, err := perm.NewQuad(prg.New(seed.Derive(quadLabel)), int(cfg.DomainSize))
	if err != nil {
		return nil, err
	}
	// Owner-slot permutation PF (known to servers and owners; §4(viii)).
	pf := perm.Random(prg.New(seed.Derive("slot-pf")), cfg.NumOwners)

	coefBound := cfg.CoefBound
	if coefBound == 0 {
		coefBound = 1000
	}
	poly, err := opoly.New(prg.New(seed.Derive("opoly")), cfg.NumOwners, coefBound)
	if err != nil {
		return nil, err
	}
	maxAgg := cfg.MaxAgg
	if maxAgg == 0 {
		maxAgg = 1 << 32
	}
	// Q: prime strictly above 2·F(maxAgg+1), so sums of two shares cannot
	// wrap ambiguously and every masked value is in range.
	bound := new(big.Int).Lsh(poly.MaxMasked(maxAgg), 1)
	q, err := nextBigPrime(bound)
	if err != nil {
		return nil, err
	}

	return &System{
		M:        cfg.NumOwners,
		B:        cfg.DomainSize,
		Delta:    delta,
		Eta:      eta,
		EtaPrime: etaPrime,
		G:        g,
		Alpha:    alpha,
		MShares:  [2]uint16{uint16(s1), uint16(s2)},
		Quad:     quad,
		PF:       pf,
		Poly:     poly,
		Q:        q,
		MaxAgg:   maxAgg,
		PSUSeed:  seed.Derive("psu-masks"),
		PermSeed: seed,
	}, nil
}

// CheckEtaPrime enforces η' < 2^32: a PSI or count cell is a value mod η'
// and travels and is stored as a uint32 (server power table, reply
// vectors, owner accumulators). Generate refuses such a system and a
// server refuses such a view before serving, so no cell is truncated.
func CheckEtaPrime(etaPrime uint64) error {
	if etaPrime >= 1<<32 {
		return fmt.Errorf("params: η'=%d does not fit a 32-bit PSI cell (need η' < 2^32)", etaPrime)
	}
	return nil
}

// MultiSystem is the initiator's view of a multi-group deployment: the
// natural domain [0, DomainSize) partitioned into contiguous ranges,
// one independent S0/S1/S2 group per range.
type MultiSystem struct {
	Groups []*System // Groups[g].B cells starting at Groups[g].Start
}

// GenerateGroups partitions cfg.DomainSize across n server groups and
// runs the initiator once per group. Group g receives a contiguous
// range of ⌈b/n⌉ or ⌊b/n⌋ cells; protocol-wide parameters are shared
// (see System). n ≤ 1 degenerates to exactly Generate's single-group
// output, including its seed-derivation labels.
func GenerateGroups(cfg Config, n int) (*MultiSystem, error) {
	seed := cfg.Seed
	if seed == zeroSeed {
		seed = prg.NewSeed()
	}
	if n <= 1 {
		sys, err := generate(cfg, seed, "quad")
		if err != nil {
			return nil, err
		}
		return &MultiSystem{Groups: []*System{sys}}, nil
	}
	if uint64(n) > cfg.DomainSize {
		return nil, fmt.Errorf("params: %d groups over a %d-cell domain", n, cfg.DomainSize)
	}
	ms := &MultiSystem{Groups: make([]*System, n)}
	base, rem := cfg.DomainSize/uint64(n), cfg.DomainSize%uint64(n)
	start := uint64(0)
	for g := 0; g < n; g++ {
		count := base
		if uint64(g) < rem {
			count++
		}
		sub := cfg
		sub.DomainSize = count
		sys, err := generate(sub, seed, fmt.Sprintf("quad/g%d", g))
		if err != nil {
			return nil, fmt.Errorf("params: group %d: %w", g, err)
		}
		sys.Group, sys.Start = g, start
		ms.Groups[g] = sys
		start += count
	}
	return ms, nil
}

// NumGroups reports the group count.
func (ms *MultiSystem) NumGroups() int { return len(ms.Groups) }

// GroupOf returns the index of the group owning a natural domain cell.
func (ms *MultiSystem) GroupOf(cell uint64) int {
	for g, sys := range ms.Groups {
		if cell >= sys.Start && cell < sys.Start+sys.B {
			return g
		}
	}
	return -1
}

// nextBigPrime returns the smallest probable prime > n.
func nextBigPrime(n *big.Int) (*big.Int, error) {
	p := new(big.Int).Add(n, big.NewInt(1))
	if p.Bit(0) == 0 {
		p.Add(p, big.NewInt(1))
	}
	two := big.NewInt(2)
	for i := 0; i < 1<<20; i++ {
		if p.ProbablyPrime(40) {
			return p, nil
		}
		p.Add(p, two)
	}
	return nil, errors.New("params: prime search exhausted")
}

// OwnerView is what every DB owner receives from the initiator. In a
// multi-group deployment the owner holds one view per group; Group and
// Start locate the view's cell range in the natural domain (both zero
// for single-group deployments and pre-multi-group view files).
type OwnerView struct {
	M      int
	B      uint64
	Delta  uint64
	Eta    uint64
	DB1    perm.Perm
	DB2    perm.Perm
	PF     perm.Perm
	Poly   *opoly.Poly
	Q      *big.Int
	MaxAgg uint64
	Group  int
	Start  uint64
}

// ServerView is what server φ (0-based index) receives. Group is the
// server group the view belongs to (zero for single-group deployments
// and pre-multi-group view files).
type ServerView struct {
	Index    int // 0, 1, 2
	M        int
	B        uint64
	Delta    uint64
	EtaPrime uint64
	G        uint64
	MShare   uint16 // A(m)^φ, only meaningful for index 0, 1
	S1       perm.Perm
	S2       perm.Perm
	PF       perm.Perm
	PSUSeed  prg.Seed
	Group    int
	Start    uint64
}

// AnnouncerView is what the announcer S_a receives (§4: "knows δ" plus
// the big modulus used for max/median shares).
type AnnouncerView struct {
	M     int
	Delta uint64
	Q     *big.Int
}

// ForOwner derives the owner view.
func (s *System) ForOwner() *OwnerView {
	return &OwnerView{
		M: s.M, B: s.B, Delta: s.Delta, Eta: s.Eta,
		DB1: s.Quad.DB1, DB2: s.Quad.DB2, PF: s.PF,
		Poly: s.Poly, Q: s.Q, MaxAgg: s.MaxAgg,
		Group: s.Group, Start: s.Start,
	}
}

// ForServer derives server φ's view. φ ∈ [0, NumServers).
func (s *System) ForServer(phi int) (*ServerView, error) {
	if phi < 0 || phi >= NumServers {
		return nil, fmt.Errorf("params: server index %d out of range", phi)
	}
	v := &ServerView{
		Index: phi, M: s.M, B: s.B, Delta: s.Delta,
		EtaPrime: s.EtaPrime, G: s.G,
		S1: s.Quad.S1, S2: s.Quad.S2, PF: s.PF,
		PSUSeed: s.PSUSeed,
		Group:   s.Group, Start: s.Start,
	}
	if phi < 2 {
		v.MShare = s.MShares[phi]
	}
	return v, nil
}

// ForAnnouncer derives the announcer view.
func (s *System) ForAnnouncer() *AnnouncerView {
	return &AnnouncerView{M: s.M, Delta: s.Delta, Q: s.Q}
}
