package prism

import (
	"context"
	"strings"
	"testing"
)

// TestBucketizedPSIWithoutTrees: querying before OutsourceBucketTrees
// must fail with a clear error.
func TestBucketizedPSIWithoutTrees(t *testing.T) {
	sys := hospitalSystem(t, false)
	if _, err := sys.BucketizedPSI(context.Background()); err == nil {
		t.Fatal("bucketized PSI without trees accepted")
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

// TestTwoOwnerSystem: the Table 13 configuration (m=2) works across all
// operators even though the paper's focus is m > 2.
func TestTwoOwnerSystem(t *testing.T) {
	dom, _ := IntDomain(1, 40)
	sys, err := NewLocalSystem(Config{
		Owners: 2, Domain: dom, AggColumns: []string{"v"},
		MaxAggValue: 1000, Verify: true, Seed: [32]byte{41},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Owner(0).Load([]Row{
		{IntKey: 7, Aggs: map[string]uint64{"v": 10}},
		{IntKey: 9, Aggs: map[string]uint64{"v": 20}},
	})
	sys.Owner(1).Load([]Row{
		{IntKey: 7, Aggs: map[string]uint64{"v": 5}},
		{IntKey: 12, Aggs: map[string]uint64{"v": 9}},
	})
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	psi, _ := sys.PSI(ctx)
	if len(psi.Cells) != 1 || psi.Cells[0] != 6 {
		t.Fatalf("PSI = %v", psi.Cells)
	}
	sum, err := sys.PSISum(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sum.Sum("v", 6); v != 15 {
		t.Errorf("sum = %d want 15", v)
	}
	max, err := sys.PSIMax(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if pc := max.PerCell[6]; pc.Value != 10 || len(pc.Owners) != 1 || pc.Owners[0] != 0 {
		t.Errorf("max = %+v", max.PerCell[6])
	}
	med, err := sys.PSIMedian(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	// Even m: pair (5, 10) → median 7 (floor of 7.5).
	if pc := med.PerCell[6]; pc.Value != 7 || len(pc.MedianPair) != 2 {
		t.Errorf("median = %+v", pc)
	}
}
