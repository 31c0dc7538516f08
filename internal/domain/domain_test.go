package domain

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntRange(t *testing.T) {
	d, err := NewIntRange(10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 10 {
		t.Fatalf("size = %d", d.Size())
	}
	if c, ok := d.CellOfInt(10); !ok || c != 0 {
		t.Errorf("CellOfInt(10) = %d, %v", c, ok)
	}
	if c, ok := d.CellOfInt(19); !ok || c != 9 {
		t.Errorf("CellOfInt(19) = %d, %v", c, ok)
	}
	if _, ok := d.CellOfInt(9); ok {
		t.Error("below range accepted")
	}
	if _, ok := d.CellOfInt(20); ok {
		t.Error("above range accepted")
	}
	if d.IntAt(5) != 15 {
		t.Errorf("IntAt(5) = %d", d.IntAt(5))
	}
	if d.Categorical() {
		t.Error("int range claims categorical")
	}
	if d.Label(0) != "10" {
		t.Errorf("Label(0) = %q", d.Label(0))
	}
}

func TestIntRangeEmpty(t *testing.T) {
	if _, err := NewIntRange(5, 4); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestValuesDomain(t *testing.T) {
	// The paper's disease example: all owners must agree on cell order.
	d, err := NewValues([]string{"Heart", "Cancer", "Fever", "Cancer"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Fatalf("size = %d after dedup", d.Size())
	}
	// Sorted: Cancer, Fever, Heart.
	for i, want := range []string{"Cancer", "Fever", "Heart"} {
		if d.StringAt(uint64(i)) != want {
			t.Errorf("StringAt(%d) = %q want %q", i, d.StringAt(uint64(i)), want)
		}
	}
	if c, ok := d.CellOfString("Fever"); !ok || c != 1 {
		t.Errorf("CellOfString(Fever) = %d, %v", c, ok)
	}
	if _, ok := d.CellOfString("Flu"); ok {
		t.Error("unknown value accepted")
	}
	if !d.Categorical() {
		t.Error("values domain not categorical")
	}
}

func TestValuesDomainConsistentAcrossOwners(t *testing.T) {
	// Different input orderings must give identical cell numbering —
	// that is what makes χ cells align across owners (§5.1 Step 1).
	a, _ := NewValues([]string{"x", "y", "z"})
	b, _ := NewValues([]string{"z", "x", "y", "x"})
	if a.Size() != b.Size() {
		t.Fatal("sizes differ")
	}
	for i := uint64(0); i < a.Size(); i++ {
		if a.StringAt(i) != b.StringAt(i) {
			t.Fatalf("cell %d: %q vs %q", i, a.StringAt(i), b.StringAt(i))
		}
	}
}

func TestBuildChi(t *testing.T) {
	chi, err := BuildChi(5, []uint64{0, 2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{1, 0, 1, 0, 1}
	for i := range want {
		if chi[i] != want[i] {
			t.Fatalf("chi = %v want %v", chi, want)
		}
	}
	if _, err := BuildChi(5, []uint64{5}); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
}

func TestComplement(t *testing.T) {
	chi := []uint16{1, 0, 1}
	bar := Complement(chi)
	for i := range chi {
		if chi[i]+bar[i] != 1 {
			t.Fatalf("complement broken at %d", i)
		}
	}
}

func TestProductCellRoundTrip(t *testing.T) {
	// §6.6 example: |Dom(A)| = 8, |Dom(B)| = 2 → 16 cells.
	a, _ := NewIntRange(1, 8)
	b, _ := NewIntRange(0, 1)
	p, err := NewProduct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 16 {
		t.Fatalf("size = %d want 16", p.Size())
	}
	f := func(x, y uint8) bool {
		ca := uint64(x % 8)
		cb := uint64(y % 2)
		cell, err := p.Cell([]uint64{ca, cb})
		if err != nil || cell >= 16 {
			return false
		}
		back := p.Split(cell)
		return back[0] == ca && back[1] == cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProductCellsDistinct(t *testing.T) {
	a, _ := NewIntRange(0, 3)
	b, _ := NewIntRange(0, 4)
	c, _ := NewIntRange(0, 2)
	p, err := NewProduct(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 4; i++ {
		for j := uint64(0); j < 5; j++ {
			for k := uint64(0); k < 3; k++ {
				cell, err := p.Cell([]uint64{i, j, k})
				if err != nil {
					t.Fatal(err)
				}
				if seen[cell] {
					t.Fatalf("duplicate cell %d", cell)
				}
				seen[cell] = true
			}
		}
	}
	if uint64(len(seen)) != p.Size() {
		t.Fatalf("covered %d of %d cells", len(seen), p.Size())
	}
}

func TestProductRejects(t *testing.T) {
	if _, err := NewProduct(); err == nil {
		t.Fatal("empty product accepted")
	}
	a, _ := NewIntRange(0, 1<<40)
	if _, err := NewProduct(a, a); err == nil {
		t.Fatal("overflowing product accepted")
	}
	b, _ := NewIntRange(0, 3)
	p, _ := NewProduct(b, b)
	if _, err := p.Cell([]uint64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := p.Cell([]uint64{4, 0}); err == nil {
		t.Fatal("out-of-range coord accepted")
	}
}

// TestLabelsMatchLabel: Labels equals Label at every cell — of
// ascending lists whose steps carry into a new digit (99→100, 999→1002,
// 9999→10000), step past the odometer's reach or repeat a cell, of
// unsorted lists, of random ascending lists, near the top of the uint64
// range and over a categorical domain.
func TestLabelsMatchLabel(t *testing.T) {
	check := func(d *Domain, cells []uint64) {
		t.Helper()
		got := d.Labels(cells)
		if len(got) != len(cells) {
			t.Fatalf("%d labels for %d cells", len(got), len(cells))
		}
		for i, c := range cells {
			if got[i] != d.Label(c) {
				t.Fatalf("cells %v: label %d = %q, Label(%d) = %q", cells, i, got[i], c, d.Label(c))
			}
		}
	}
	from0, _ := NewIntRange(0, 1<<40)
	from1, _ := NewIntRange(1, 1<<20)
	top, _ := NewIntRange(1<<64-100, 1<<64-1)
	for _, cells := range [][]uint64{
		nil,
		{0},
		{8, 9, 10, 11, 99, 100, 101},
		{98, 99, 100, 998, 999, 1002, 9999, 10000, 99999, 100003},
		{5, 5, 5, 6, 6 + odometerReach, 7 + 2*odometerReach + 1},
		{1000, 999, 10, 99, 100, 3, 3, 1 << 30, 7},
	} {
		check(from0, cells)
		check(from1, cells)
	}
	check(top, []uint64{0, 1, 50, 98, 99})
	check(top, []uint64{99, 0, 98})

	g := rand.New(rand.NewSource(53))
	for range 200 {
		cells, c := make([]uint64, g.Intn(300)), uint64(g.Intn(1000))
		for i := range cells {
			cells[i] = c
			c += uint64(g.Intn(3 * odometerReach / (1 + g.Intn(64))))
		}
		check(from0, cells)
		g.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		check(from1, cells)
	}

	cat, _ := NewValues([]string{"flu", "cold", "covid"})
	check(cat, []uint64{2, 0, 1, 1})
}
