package prism

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"prism/internal/transport"
)

// TestBucketizedPSIWithoutTrees: a system outsourced without
// Config.Buckets answers bucketized PSI with the servers' unknown-table
// error, not with an empty set.
func TestBucketizedPSIWithoutTrees(t *testing.T) {
	sys := hospitalSystem(t, false)
	if _, err := sys.BucketizedPSI(context.Background()); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("bucketized PSI without trees: err = %v, want an unknown-table error", err)
	}
}

// TestDomainLabels covers both scalar and product rendering.
func TestDomainLabels(t *testing.T) {
	iv, _ := IntDomain(5, 9)
	if iv.Label(0) != "5" || iv.Label(4) != "9" {
		t.Errorf("int labels: %s %s", iv.Label(0), iv.Label(4))
	}
	vv, _ := ValueDomain("b", "a")
	if vv.Label(0) != "a" {
		t.Errorf("value label: %s", vv.Label(0))
	}
	p, _ := ProductDomain(iv, vv)
	if !strings.Contains(p.Label(0), "|") {
		t.Errorf("product label missing separator: %s", p.Label(0))
	}
	if p.Size() != 10 {
		t.Errorf("product size %d", p.Size())
	}
}

// TestSetResultDecodedValues: Values must parallel Cells.
func TestSetResultDecodedValues(t *testing.T) {
	sys := hospitalSystem(t, false)
	res, err := sys.PSU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(res.Cells) {
		t.Fatalf("values %d cells %d", len(res.Values), len(res.Cells))
	}
	for i, c := range res.Cells {
		if res.Values[i] != sys.DomainLabel(c) {
			t.Errorf("value[%d] = %q, label = %q", i, res.Values[i], sys.DomainLabel(c))
		}
	}
}

// TestAggregateResultMissingCell: lookups outside the result set are
// reported as absent rather than zero-valued.
func TestAggregateResultMissingCell(t *testing.T) {
	sys := hospitalSystem(t, false)
	res, err := sys.PSISum(context.Background(), "cost")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Sum("cost", 99); ok {
		t.Error("out-of-set cell reported present")
	}
	if _, ok := res.Avg("cost", 99); ok {
		t.Error("out-of-set avg reported present")
	}
	if _, ok := res.Sum("ghost", res.Cells[0]); ok {
		t.Error("unknown column reported present")
	}
}

// TestQueryStatsAccumulate: multi-round queries must report more rounds
// and more server work than single-round ones.
func TestQueryStatsAccumulate(t *testing.T) {
	sys := hospitalSystem(t, true)
	psi, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.PSISum(context.Background(), "cost")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Rounds <= psi.Stats.Rounds {
		t.Errorf("sum rounds %d <= psi rounds %d", sum.Stats.Rounds, psi.Stats.Rounds)
	}
	if sum.Stats.Cells <= psi.Stats.Cells {
		t.Errorf("sum cells %d <= psi cells %d", sum.Stats.Cells, psi.Stats.Cells)
	}
	if psi.Stats.WallNS <= 0 || psi.Stats.Rounds != 1 { // the proof rides the PSI reply
		t.Errorf("psi stats: %+v", psi.Stats)
	}
}

// TestAggregationUnknownColumnFails: asking for a column that was never
// outsourced must error at the servers.
func TestAggregationUnknownColumnFails(t *testing.T) {
	sys := hospitalSystem(t, false)
	if _, err := sys.PSISum(context.Background(), "salary"); err == nil {
		t.Fatal("unknown aggregation column accepted")
	}
	if _, err := sys.PSISum(context.Background()); err == nil {
		t.Fatal("empty column list accepted")
	}
}

// TestReOutsourceOverwrites: an owner can reload and re-outsource; the
// next query sees the new data.
func TestReOutsourceOverwrites(t *testing.T) {
	sys := hospitalSystem(t, false)
	ctx := context.Background()
	// Hospital 1 stops treating Cancer → intersection becomes empty.
	if err := sys.Owner(0).Load([]Row{
		{StrKey: "Heart", Aggs: map[string]uint64{"age": 2, "cost": 300}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Owner(0).Outsource(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSI(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 {
		t.Fatalf("PSI after re-outsource = %v, want empty", res.Values)
	}
}

// TestShardedSingleCellDomain: the b=1 degenerate domain answers every
// kind as the oracle does, as one window and as windows wider than it.
func TestShardedSingleCellDomain(t *testing.T) {
	for _, shard := range []uint64{0, 1, 4} {
		t.Run(fmt.Sprintf("ShardCells=%d", shard), func(t *testing.T) {
			sys := shape{owners: 2, shard: shard, b: 1}.system(t)
			orc := loadPlanted(t, sys, plantedCells(sys, 1), 1)
			directAnswers(t, sys, orc)
		})
	}
}

// TestShardedBeatsFrameCap is the acceptance demonstration: with the
// transport frame cap lowered, a domain whose whole-table exchanges
// exceed the cap fails outright — and the same domain outsources and
// answers PSI, count and sum as the oracle does once ShardCells bounds
// the frames, on one server group or two.
func TestShardedBeatsFrameCap(t *testing.T) {
	restore := transport.SetFrameLimit(4 << 10) // 4 KiB: a toy MaxFrameBytes
	defer restore()
	const b = 4096
	// One window: a 4096-cell Shamir column alone is 32 KiB on the wire,
	// eight times the cap.
	sys := shape{owners: 3, b: b}.system(t) // the cap applies to encoded frames
	for j := 0; j < 3; j++ {
		if err := sys.Owner(j).LoadCells([]uint64{41}, map[string][]uint64{"v": {1}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("one-window outsource at b=%d under a 4 KiB cap: err = %v, want ErrFrameTooLarge", b, err)
	}

	// 64-cell windows keep every frame, verification columns included,
	// under the cap — and splitting the domain across two groups never
	// grows a frame, since a group's windows cover its own cells only.
	for _, groups := range []int{1, 2} {
		sys = shape{owners: 3, shard: 64, groups: groups, b: b}.system(t)
		orc := loadPlanted(t, sys, plantedCells(sys, 3), 7)
		want := orc.answers()
		for _, kind := range []OpKind{OpPSI, OpPSICount, OpPSISum} {
			resp := sys.execute(context.Background(), Request{Op: kind, Cols: kindCols(kind)})
			if resp.Err != nil {
				t.Fatalf("%v in windows over %d groups: %v", kind, groups, resp.Err)
			}
			if got := answerOfResult(resp.Result); got != want[kind] {
				t.Errorf("%v in windows over %d groups = %s, plaintext %s", kind, groups, got, want[kind])
			}
		}
	}
}

// TestProductDomainRowErrors covers the key-mapping error paths of a
// product domain and its construction's: each row is refused.
func TestProductDomainRowErrors(t *testing.T) {
	a, _ := IntDomain(1, 4)
	b, _ := ValueDomain("x", "y")
	dom, _ := ProductDomain(a, b)
	sys, err := NewLocalSystem(Config{Owners: 2, Domain: dom, Seed: [32]byte{79}})
	if err != nil {
		t.Fatal(err)
	}
	load := func(rows ...Row) func() error { return func() error { return sys.Owner(0).Load(rows) } }
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"wrong arity", load(Row{Keys: []string{"1"}})},
		{"out-of-range int", load(Row{Keys: []string{"9", "x"}})},
		{"unknown categorical", load(Row{Keys: []string{"1", "z"}})},
		{"non-integer", load(Row{Keys: []string{"one", "x"}})},
		{"scalar key on a product domain", load(Row{IntKey: 1})},
		{"nested product", func() error { _, err := ProductDomain(dom, a); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Error("accepted")
			}
		})
	}
}
