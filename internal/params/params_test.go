package params

import (
	"math/big"
	"strings"
	"testing"

	"prism/internal/modmath"
	"prism/internal/prg"
)

func testConfig() Config {
	return Config{
		NumOwners:  3,
		DomainSize: 100,
		MaxAgg:     1000,
		Seed:       prg.SeedFromString("params-test"),
	}
}

func TestGenerateDefaults(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Delta != 113 {
		t.Errorf("δ = %d, want paper default 113", s.Delta)
	}
	if s.Eta != 227 {
		t.Errorf("η = %d, want 227", s.Eta)
	}
	if s.EtaPrime != 13*227 {
		t.Errorf("η' = %d, want %d", s.EtaPrime, 13*227)
	}
	if (s.Eta-1)%s.Delta != 0 {
		t.Error("δ does not divide η-1")
	}
	if modmath.PowMod(s.G, s.Delta, s.Eta) != 1 || s.G == 1 {
		t.Error("g is not an order-δ generator")
	}
}

func TestMSharesReconstruct(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := (uint64(s.MShares[0]) + uint64(s.MShares[1])) % s.Delta
	if sum != uint64(s.M)%s.Delta {
		t.Errorf("shares of m reconstruct to %d, want %d", sum, s.M)
	}
}

func TestQuadSatisfiesEquation1(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Quad.Check(); err != nil {
		t.Fatal(err)
	}
	if s.Quad.PFi.Len() != int(s.B) {
		t.Errorf("quad size %d != domain %d", s.Quad.PFi.Len(), s.B)
	}
}

func TestQSizedAboveMaskedValues(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Q.ProbablyPrime(30) {
		t.Error("Q not prime")
	}
	// Q must exceed 2·F(MaxAgg+1).
	bound := new(big.Int).Lsh(s.Poly.MaxMasked(s.MaxAgg), 1)
	if s.Q.Cmp(bound) <= 0 {
		t.Error("Q not above 2·F(MaxAgg+1)")
	}
}

func TestPolyDegreeExceedsOwners(t *testing.T) {
	cfg := testConfig()
	cfg.NumOwners = 7
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Poly.Degree() != 8 {
		t.Errorf("degree %d, want m+1 = 8 (§4: prevents interpolation from m values)", s.Poly.Degree())
	}
}

func TestDeltaAutoRaisedForManyOwners(t *testing.T) {
	cfg := testConfig()
	cfg.NumOwners = 150 // > 113
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Delta <= 150 {
		t.Errorf("δ = %d must exceed m = 150", s.Delta)
	}
	if !modmath.IsPrime(s.Delta) {
		t.Errorf("δ = %d not prime", s.Delta)
	}
	if (s.Eta-1)%s.Delta != 0 {
		t.Error("δ does not divide η-1 after auto-raise")
	}
}

func TestDeterministicFromSeed(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.G != b.G || a.Delta != b.Delta || a.MShares != b.MShares {
		t.Error("generation not deterministic for fixed seed")
	}
	if !a.Quad.PFi.Equal(b.Quad.PFi) || !a.PF.Equal(b.PF) {
		t.Error("permutations not deterministic")
	}
	if a.Q.Cmp(b.Q) != 0 {
		t.Error("Q not deterministic")
	}
	if a.PSUSeed != b.PSUSeed {
		t.Error("PSU seed not deterministic")
	}
}

func TestRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{NumOwners: 1, DomainSize: 10},
		{NumOwners: 3, DomainSize: 0},
		{NumOwners: 3, DomainSize: 10, Delta: 112}, // not prime
		{NumOwners: 3, DomainSize: 10, Alpha: 1},
	}
	for i, cfg := range cases {
		if cfg.Seed == zeroSeed {
			cfg.Seed = prg.SeedFromString("bad")
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestEtaPrimeBound: PSI cells are 32-bit, so Generate refuses an α that
// pushes η' = α·η to 2^32 or past (or wraps it) with an error naming η',
// and accepts the largest α below the bound.
func TestEtaPrimeBound(t *testing.T) {
	const eta = 227 // the default δ = 113's η
	for _, alpha := range []uint64{1<<32/eta + 1, 1 << 40, 1 << 63} {
		cfg := testConfig()
		cfg.Alpha = alpha
		_, err := Generate(cfg)
		if err == nil || !strings.Contains(err.Error(), "η'") {
			t.Errorf("α=%d: err = %v, want a refusal naming η'", alpha, err)
		}
	}
	cfg := testConfig()
	cfg.Alpha = (1<<32 - 1) / eta
	s, err := Generate(cfg)
	if err != nil {
		t.Fatalf("α=%d: %v", cfg.Alpha, err)
	}
	if s.EtaPrime >= 1<<32 {
		t.Fatalf("α=%d: η'=%d accepted past 2^32", cfg.Alpha, s.EtaPrime)
	}
}

// TestCheckEtaPrimeRefusesServerView: the check prism-server runs on a
// loaded view file accepts every generated view and refuses one whose η'
// does not fit a 32-bit cell.
func TestCheckEtaPrimeRefusesServerView(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sv, err := s.ForServer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEtaPrime(sv.EtaPrime); err != nil {
		t.Fatalf("generated view refused: %v", err)
	}
	for _, ep := range []uint64{1 << 32, 1<<32 + 227, ^uint64(0)} {
		sv.EtaPrime = ep
		if err := CheckEtaPrime(sv.EtaPrime); err == nil || !strings.Contains(err.Error(), "η'") {
			t.Errorf("η'=%d: err = %v, want a refusal naming η'", ep, err)
		}
	}
}

// TestKnowledgeAsymmetry asserts the §4 trust boundaries: the owner view
// must not carry g, α, η', PF_s1/2 or the PSU seed; the server view must
// not carry η or PF_db1/2. This is a compile-time property of the view
// structs; here we check the values that could leak indirectly.
func TestKnowledgeAsymmetry(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ow := s.ForOwner()
	if ow.Eta != s.Eta {
		t.Error("owner must know η (needed for fop mod η)")
	}
	for phi := 0; phi < NumServers; phi++ {
		sv, err := s.ForServer(phi)
		if err != nil {
			t.Fatal(err)
		}
		if sv.EtaPrime%s.Eta != 0 {
			t.Error("server η' must be a multiple of η")
		}
		if sv.EtaPrime == s.Eta {
			t.Error("server must not receive η itself")
		}
	}
	if _, err := s.ForServer(3); err == nil {
		t.Error("out-of-range server index accepted")
	}
	an := s.ForAnnouncer()
	if an.Q.Cmp(s.Q) != 0 || an.Delta != s.Delta {
		t.Error("announcer view incomplete")
	}
}

func TestServerSharesOfM(t *testing.T) {
	s, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := s.ForServer(0)
	v1, _ := s.ForServer(1)
	v2, _ := s.ForServer(2)
	sum := (uint64(v0.MShare) + uint64(v1.MShare)) % s.Delta
	if sum != uint64(s.M)%s.Delta {
		t.Error("server views' m-shares do not reconstruct m")
	}
	if v2.MShare != 0 {
		t.Error("third (Shamir-only) server should hold no additive m-share")
	}
}

func TestFreshSeedWhenZero(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = prg.Seed{}
	cfg.DomainSize = 16
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PSUSeed == b.PSUSeed {
		t.Error("zero seed should draw fresh entropy per call")
	}
}
