package prism

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"prism/internal/transport"
)

// TestBucketizedPSIMatchesFlatPSI: §6.6 must return exactly the flat PSI
// answer while visiting fewer cells on sparse data.
func TestBucketizedPSIMatchesFlatPSI(t *testing.T) {
	sys := shape{owners: 3, b: 4096}.system(t)
	orc := loadPlanted(t, sys, plantedCells(sys, 5), 1100)
	res, err := sys.BucketizedPSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Cells, orc.cells) {
		t.Fatalf("bucketized PSI = %v, plaintext %v", res.Cells, orc.cells)
	}
	if visited := res.Stats.Cells / 2; visited >= 4096 {
		t.Errorf("sparse data visited %d of 4096 cells — no pruning", visited)
	}
	if res.Stats.Rounds < 2 {
		t.Errorf("expected multi-round traversal, got %d", res.Stats.Rounds)
	}
}

// TestBucketizedPSIAfterUpdate: once every owner adds a tuple at a cell
// none of them held, bucketized PSI answers the current table, as flat
// PSI does — each group's tree is rebuilt and re-uploaded with the
// update, never left describing the table as outsourced — on one group
// and on two, whose trees each cover their own group's cells.
func TestBucketizedPSIAfterUpdate(t *testing.T) {
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			ctx := context.Background()
			sys := shape{owners: 3, groups: groups, b: 4096}.system(t)
			orc := loadPlanted(t, sys, plantedCells(sys, 5), 1100)
			const cell = 3000
			if slices.Contains(orc.cells, cell) {
				t.Fatalf("cell %d is already common", cell)
			}
			for j := range orc.sets {
				if _, err := sys.Owner(j).UpdateCells(ctx, []uint64{cell}, map[string][]uint64{"v": {7}}, nil, nil); err != nil {
					t.Fatal(err)
				}
				orc.sets[j], orc.vals[j] = append(orc.sets[j], cell), append(orc.vals[j], 7)
			}
			orc.rebuild()
			flat, err := sys.PSI(ctx)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.BucketizedPSI(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(flat.Cells, orc.cells) || !slices.Equal(res.Cells, orc.cells) {
				t.Fatalf("after the update PSI = %v, bucketized PSI = %v, plaintext %v", flat.Cells, res.Cells, orc.cells)
			}
		})
	}
}

// TestBucketizedPSISharded: the bucket-tree levels ride the windowed
// store path, so the O(b) leaf level uploads as bounded windows — under
// a transport frame cap that a whole-table leaf upload would burst — and
// the traversal still returns exactly the flat PSI answer. The
// disk-backed variant additionally streams every level's windows
// through the chunked segment store. The dense case plants every cell:
// every bucket is common, so each level's query spans the whole level
// and must travel as windows too.
func TestBucketizedPSISharded(t *testing.T) {
	restore := transport.SetFrameLimit(4 << 10) // leaf level b=4096 → over 4 KiB even at one byte per χ share
	defer restore()
	for _, storage := range []string{"mem", "disk"} {
		t.Run(storage, func(t *testing.T) {
			for _, density := range []string{"sparse", "dense"} {
				t.Run(density, func(t *testing.T) {
					// 64-cell windows keep even the verify+agg main-table
					// frames under the cap; a whole-table leaf-level upload
					// (4096 χ shares of at least a byte each, plus the frame
					// header) would burst it.
					cfg := shape{owners: 3, shard: 64, b: 4096}.config(t)
					if storage == "disk" {
						cfg.DiskDir = t.TempDir()
					}
					sys, err := NewLocalSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					planted := plantedCells(sys, 5)
					if density == "dense" {
						planted = plantedCells(sys, 4096)
					}
					orc := loadPlanted(t, sys, planted, 1100)
					res, err := sys.BucketizedPSI(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(res.Cells, orc.cells) {
						t.Fatalf("windowed bucketized PSI = %v, plaintext %v", res.Cells, orc.cells)
					}
					if visited := res.Stats.Cells / 2; density == "sparse" && visited >= 4096 {
						t.Errorf("sparse data visited %d of 4096 cells — no pruning", visited)
					}
				})
			}
		})
	}
}

// TestMultiAttributePSI reproduces §6.6's multi-attribute PSI:
// SELECT A, B FROM db1 INTERSECT ... over the product domain
// |Dom(A)| × |Dom(B)| (the paper's example uses 8 × 2 = 16 cells).
func TestMultiAttributePSI(t *testing.T) {
	a, err := IntDomain(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValueDomain("red", "blue")
	if err != nil {
		t.Fatal(err)
	}
	dom, err := ProductDomain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Size() != 16 {
		t.Fatalf("product size = %d, want 16", dom.Size())
	}
	sys, err := NewLocalSystem(Config{
		Owners: 2, Domain: dom, Verify: true, Seed: [32]byte{77},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Owner 0 holds (4,red), (7,blue), (8,blue); owner 1 holds (1,red),
	// (6,blue), (8,blue): common pair = (8,blue).
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.Owner(0).Load([]Row{
		{Keys: []string{"4", "red"}},
		{Keys: []string{"7", "blue"}},
		{Keys: []string{"8", "blue"}},
	}))
	must(sys.Owner(1).Load([]Row{
		{Keys: []string{"1", "red"}},
		{Keys: []string{"6", "blue"}},
		{Keys: []string{"8", "blue"}},
	}))
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0] != "8|blue" {
		t.Fatalf("multi-attribute PSI = %v, want [8|blue]", res.Values)
	}
}

// TestMultiAttributeBucketizedPSI combines §6.6's two mechanisms: PSI
// over a (sparse) product domain accelerated by the bucket tree — the
// configuration the paper proposes for large cartesian-product domains.
func TestMultiAttributeBucketizedPSI(t *testing.T) {
	a, _ := IntDomain(1, 64)
	b, _ := IntDomain(1, 64)
	dom, err := ProductDomain(a, b) // 4096 cells
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewLocalSystem(Config{Owners: 3, Domain: dom, Buckets: true, Seed: [32]byte{78}})
	if err != nil {
		t.Fatal(err)
	}
	itoa := strconv.Itoa
	for j := 0; j < 3; j++ {
		rows := []Row{
			{Keys: []string{"10", "20"}},                  // common pair
			{Keys: []string{itoa(j + 1), itoa(60 - j)}},   // owner-specific
			{Keys: []string{itoa(30 + j), itoa(2*j + 1)}}, // owner-specific
		}
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.BucketizedPSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0] != "10|20" {
		t.Fatalf("bucketized multi-attr PSI = %v, want [10|20]", res.Values)
	}
	if visited := res.Stats.Cells / 2; visited >= 4096 {
		t.Errorf("no pruning on sparse product domain: %d of 4096", visited)
	}
	// Flat PSI must agree.
	flat, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Cells) != 1 || flat.Cells[0] != res.Cells[0] {
		t.Fatalf("flat %v vs bucketized %v disagree", flat.Cells, res.Cells)
	}
}

// TestManyOwners pushes the owner count to 40 (Exp 2 territory) on a
// small domain.
func TestManyOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys := shape{owners: 40, b: 64}.system(t)
	orc := loadPlanted(t, sys, plantedCells(sys, 5), 1200)
	want := orc.answers()
	for _, kind := range []OpKind{OpPSI, OpPSICount} {
		resp := sys.execute(context.Background(), Request{Op: kind})
		if resp.Err != nil {
			t.Fatalf("%v with 40 owners: %v", kind, resp.Err)
		}
		if got := answerOfResult(resp.Result); got != want[kind] {
			t.Errorf("%v with 40 owners = %s, plaintext %s", kind, got, want[kind])
		}
	}
}

// TestMultiColumnAggregation exercises the Table 12 path: one query
// aggregating several columns at once.
func TestMultiColumnAggregation(t *testing.T) {
	cfg := shape{owners: 3, b: 50}.config(t)
	cfg.AggColumns = []string{"a", "b", "c", "d"}
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for j := 0; j < 3; j++ {
		rows := []Row{{IntKey: 7, Aggs: map[string]uint64{
			"a": uint64(j + 1), "b": uint64(2 * (j + 1)), "c": 10, "d": uint64(j),
		}}}
		for col, v := range rows[0].Aggs {
			want[col] += v
		}
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSISum(context.Background(), "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	cell := uint64(6) // key 7 in domain starting at 1
	for col, w := range want {
		got, ok := res.Sum(col, cell)
		if !ok || got != w {
			t.Errorf("sum(%s) = %d, want %d", col, got, w)
		}
	}
}

// TestLoadRejectsOutOfDomain: rows outside the public domain fail fast.
func TestLoadRejectsOutOfDomain(t *testing.T) {
	dom, _ := IntDomain(10, 20)
	sys, err := NewLocalSystem(Config{Owners: 2, Domain: dom, Seed: [32]byte{3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Owner(0).Load([]Row{{IntKey: 9}}); err == nil {
		t.Error("below-domain key accepted")
	}
	if err := sys.Owner(0).Load([]Row{{IntKey: 21}}); err == nil {
		t.Error("above-domain key accepted")
	}
}

// TestConfigValidation covers constructor error paths.
func TestConfigValidation(t *testing.T) {
	dom, _ := IntDomain(1, 10)
	if _, err := NewLocalSystem(Config{Owners: 1, Domain: dom}); err == nil {
		t.Error("1 owner accepted")
	}
	if _, err := NewLocalSystem(Config{Owners: 3}); err == nil {
		t.Error("nil domain accepted")
	}
}
