package prism

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"prism/internal/transport"
)

// randomSystem builds a system with random integer data for m owners and
// returns the plaintext ground truth alongside.
type groundTruth struct {
	intersection map[uint64]bool
	union        map[uint64]bool
	sums         map[uint64]uint64 // per cell, over all owners, col "v"
	counts       map[uint64]uint64
	maxs         map[uint64]uint64
	mins         map[uint64]uint64
}

func randomSystem(t testing.TB, m int, domainSize uint64, tuplesPerOwner int, seed int64, cfgMod func(*Config)) (*System, *groundTruth) {
	t.Helper()
	dom, err := IntDomain(1, domainSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Owners:     m,
		Domain:     dom,
		AggColumns: []string{"v"},
		// Bounds median's per-owner totals too (tuples × value range).
		MaxAggValue: uint64(tuplesPerOwner+1) * 1000,
		Verify:      true,
		Seed:        [32]byte{byte(seed), byte(seed >> 8), 7},
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	gt := &groundTruth{
		intersection: make(map[uint64]bool),
		union:        make(map[uint64]bool),
		sums:         make(map[uint64]uint64),
		counts:       make(map[uint64]uint64),
		maxs:         make(map[uint64]uint64),
		mins:         make(map[uint64]uint64),
	}
	perOwner := make([]map[uint64]bool, m)
	for j := 0; j < m; j++ {
		perOwner[j] = make(map[uint64]bool)
		var rows []Row
		for i := 0; i < tuplesPerOwner; i++ {
			key := uint64(rng.Int63n(int64(domainSize))) + 1
			val := uint64(rng.Int63n(1000))
			rows = append(rows, Row{IntKey: key, Aggs: map[string]uint64{"v": val}})
			cell := key - 1
			perOwner[j][cell] = true
			gt.union[cell] = true
			gt.sums[cell] += val
			gt.counts[cell]++
			if cur, ok := gt.maxs[cell]; !ok || val > cur {
				gt.maxs[cell] = val
			}
			if cur, ok := gt.mins[cell]; !ok || val < cur {
				gt.mins[cell] = val
			}
		}
		// Plant one guaranteed-common key so the intersection is never
		// empty.
		common := uint64(1)
		rows = append(rows, Row{IntKey: common, Aggs: map[string]uint64{"v": 500}})
		perOwner[j][common-1] = true
		gt.union[common-1] = true
		gt.sums[common-1] += 500
		gt.counts[common-1]++
		if cur, ok := gt.maxs[common-1]; !ok || 500 > cur {
			gt.maxs[common-1] = 500
		}
		if cur, ok := gt.mins[common-1]; !ok || 500 < cur {
			gt.mins[common-1] = 500
		}
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	for c := range gt.union {
		all := true
		for j := 0; j < m; j++ {
			if !perOwner[j][c] {
				all = false
				break
			}
		}
		if all {
			gt.intersection[c] = true
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys, gt
}

func cellsToSet(cells []uint64) map[uint64]bool {
	out := make(map[uint64]bool, len(cells))
	for _, c := range cells {
		out[c] = true
	}
	return out
}

func sameSet(t *testing.T, what string, got map[uint64]bool, want map[uint64]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d cells, want %d", what, len(got), len(want))
	}
	for c := range want {
		if !got[c] {
			t.Fatalf("%s: missing cell %d", what, c)
		}
	}
}

// TestRandomPSIMatchesPlaintext cross-checks PSI against the plaintext
// intersection for several owner counts and densities.
func TestRandomPSIMatchesPlaintext(t *testing.T) {
	for _, m := range []int{2, 3, 5, 8} {
		sys, gt := randomSystem(t, m, 200, 60, int64(100+m), nil)
		res, err := sys.PSI(context.Background())
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		sameSet(t, "PSI", cellsToSet(res.Cells), gt.intersection)
	}
}

func TestRandomPSUMatchesPlaintext(t *testing.T) {
	for _, m := range []int{2, 4, 7} {
		sys, gt := randomSystem(t, m, 150, 40, int64(200+m), nil)
		res, err := sys.PSU(context.Background())
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		sameSet(t, "PSU", cellsToSet(res.Cells), gt.union)
	}
}

func TestRandomCountsMatchPlaintext(t *testing.T) {
	sys, gt := randomSystem(t, 5, 100, 30, 300, nil)
	pc, err := sys.PSICount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pc.Count != len(gt.intersection) {
		t.Errorf("PSI count %d, want %d", pc.Count, len(gt.intersection))
	}
	uc, err := sys.PSUCount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if uc.Count != len(gt.union) {
		t.Errorf("PSU count %d, want %d", uc.Count, len(gt.union))
	}
}

func TestRandomPSISumMatchesPlaintext(t *testing.T) {
	sys, gt := randomSystem(t, 4, 120, 50, 400, nil)
	res, err := sys.PSISum(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		got, _ := res.Sum("v", cell)
		if got != gt.sums[cell] {
			t.Errorf("sum at %d = %d, want %d", cell, got, gt.sums[cell])
		}
	}
}

func TestRandomPSUSumMatchesPlaintext(t *testing.T) {
	sys, gt := randomSystem(t, 3, 80, 40, 500, nil)
	res, err := sys.PSUSum(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(gt.union) {
		t.Fatalf("union size %d want %d", len(res.Cells), len(gt.union))
	}
	for _, cell := range res.Cells {
		got, _ := res.Sum("v", cell)
		if got != gt.sums[cell] {
			t.Errorf("PSU sum at %d = %d, want %d", cell, got, gt.sums[cell])
		}
	}
}

func TestRandomPSIAvgMatchesPlaintext(t *testing.T) {
	sys, gt := randomSystem(t, 4, 120, 50, 600, nil)
	res, err := sys.PSIAvg(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		got, ok := res.Avg("v", cell)
		want := float64(gt.sums[cell]) / float64(gt.counts[cell])
		if !ok || got != want {
			t.Errorf("avg at %d = %f, want %f", cell, got, want)
		}
	}
}

func TestRandomPSIMaxMinMatchPlaintext(t *testing.T) {
	sys, gt := randomSystem(t, 3, 60, 25, 700, nil)
	res, err := sys.PSIMax(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for cell, pc := range res.PerCell {
		if pc.Value != gt.maxs[cell] {
			t.Errorf("max at %d = %d, want %d", cell, pc.Value, gt.maxs[cell])
		}
		if len(pc.Owners) == 0 {
			t.Errorf("max at %d has no owner", cell)
		}
	}
	resMin, err := sys.PSIMin(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for cell, pc := range resMin.PerCell {
		if pc.Value != gt.mins[cell] {
			t.Errorf("min at %d = %d, want %d", cell, pc.Value, gt.mins[cell])
		}
	}
}

// TestMedianOddEven checks the §6.4 median for both parities of m,
// against a direct computation over per-owner totals.
func TestMedianOddEven(t *testing.T) {
	for _, m := range []int{3, 4, 5, 6} {
		sys, _ := randomSystem(t, m, 50, 20, int64(800+m), nil)
		res, err := sys.PSIMedian(context.Background(), "v")
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for cell, pc := range res.PerCell {
			// Ground truth: median of per-owner sums at the cell.
			var totals []uint64
			for j := 0; j < m; j++ {
				d := sys.Owner(j).Engine().Data()
				var tot uint64
				for i, c := range d.Cells {
					if c == cell {
						tot += d.Aggs["v"][i]
					}
				}
				totals = append(totals, tot)
			}
			sort.Slice(totals, func(a, b int) bool { return totals[a] < totals[b] })
			if m%2 == 1 {
				if pc.Value != totals[m/2] {
					t.Errorf("m=%d cell %d: median %d, want %d", m, cell, pc.Value, totals[m/2])
				}
			} else {
				want := (totals[m/2-1] + totals[m/2]) / 2
				if pc.Value != want {
					t.Errorf("m=%d cell %d: median %d, want %d (pair %v)", m, cell, pc.Value, want, pc.MedianPair)
				}
				if len(pc.MedianPair) != 2 || pc.MedianPair[0] != totals[m/2-1] || pc.MedianPair[1] != totals[m/2] {
					t.Errorf("m=%d cell %d: median pair %v, want [%d %d]", m, cell, pc.MedianPair, totals[m/2-1], totals[m/2])
				}
			}
		}
	}
}

// TestMultiColumnAggregation exercises the Table 12 path: one query
// aggregating several columns at once.
func TestMultiColumnAggregation(t *testing.T) {
	dom, _ := IntDomain(1, 50)
	sys, err := NewLocalSystem(Config{
		Owners:      3,
		Domain:      dom,
		AggColumns:  []string{"a", "b", "c", "d"},
		MaxAggValue: 100,
		Verify:      true,
		Seed:        [32]byte{42},
	})
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

// TestEncodeWireMode runs the full stack with every message forced
// through the wire frame codec.
func TestEncodeWireMode(t *testing.T) {
	sys, gt := randomSystem(t, 3, 64, 20, 900, func(c *Config) { c.EncodeWire = true })
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "PSI over wire-encoded transport", cellsToSet(res.Cells), gt.intersection)
	sum, err := sys.PSISum(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range sum.Cells {
		if got, _ := sum.Sum("v", cell); got != gt.sums[cell] {
			t.Errorf("wire-encoded sum mismatch at %d", cell)
		}
	}
}

// TestDiskBackedMode runs with servers spilling shares to disk and
// fetching per query; fetch time must be observed.
func TestDiskBackedMode(t *testing.T) {
	dir := t.TempDir()
	sys, gt := randomSystem(t, 3, 128, 30, 1000, func(c *Config) { c.DiskDir = dir })
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "disk-backed PSI", cellsToSet(res.Cells), gt.intersection)
	if res.Stats.ServerFetchNS == 0 {
		t.Error("disk-backed mode reported zero fetch time")
	}
	// Aggregation reads Shamir columns from disk too.
	sum, err := sys.PSISum(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range sum.Cells {
		if got, _ := sum.Sum("v", cell); got != gt.sums[cell] {
			t.Errorf("disk-backed sum mismatch at %d", cell)
		}
	}
}

// TestBucketizedPSIMatchesFlatPSI: §6.6 must return exactly the flat PSI
// answer while visiting fewer cells on sparse data.
func TestBucketizedPSIMatchesFlatPSI(t *testing.T) {
	sys, gt := randomSystem(t, 3, 4096, 30, 1100, nil)
	if err := sys.OutsourceBucketTrees(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	res, err := sys.BucketizedPSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "bucketized PSI", cellsToSet(res.Cells), gt.intersection)
	if res.Visited >= res.Flat {
		t.Errorf("sparse data visited %d of %d cells — no pruning", res.Visited, res.Flat)
	}
	if res.Rounds < 2 {
		t.Errorf("expected multi-round traversal, got %d", res.Rounds)
	}
}

// TestBucketizedPSISharded: the bucket-tree levels now ride the sharded
// store path, so the O(b) leaf level uploads as bounded windows — under
// a transport frame cap that a monolithic leaf upload would burst — and
// the traversal still returns exactly the flat PSI answer. The
// disk-backed variant additionally streams every level's windows
// through the chunked segment store.
func TestBucketizedPSISharded(t *testing.T) {
	restore := transport.SetFrameLimit(4 << 10) // leaf level b=4096 → over 4 KiB even at one byte per χ share
	defer restore()
	for _, disk := range []bool{false, true} {
		name := map[bool]string{false: "mem", true: "disk"}[disk]
		t.Run(name, func(t *testing.T) {
			// 64-cell windows keep even the verify+agg main-table frames
			// under the cap; a monolithic leaf-level upload (4096 χ shares
			// of at least a byte each, plus the frame header) would burst
			// it.
			sys, gt := randomSystem(t, 3, 4096, 30, 1100, func(c *Config) {
				c.ShardCells = 64
				c.EncodeWire = true
				if disk {
					c.DiskDir = t.TempDir()
					c.ChunkCells = 64
					c.HotChunks = 1 << 16
				}
			})
			if err := sys.OutsourceBucketTrees(context.Background(), 8); err != nil {
				t.Fatal(err)
			}
			res, err := sys.BucketizedPSI(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, "sharded bucketized PSI", cellsToSet(res.Cells), gt.intersection)
			if res.Visited >= res.Flat {
				t.Errorf("sparse data visited %d of %d cells — no pruning", res.Visited, res.Flat)
			}
		})
	}
}

// TestManyOwners pushes the owner count to 40 (Exp 2 territory) on a
// small domain.
func TestManyOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys, gt := randomSystem(t, 40, 64, 16, 1200, nil)
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "PSI with 40 owners", cellsToSet(res.Cells), gt.intersection)
	cnt, err := sys.PSICount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != len(gt.intersection) {
		t.Errorf("count %d want %d", cnt.Count, len(gt.intersection))
	}
}

// TestEmptyIntersection: disjoint owners yield an empty PSI and a zero
// count, while PSU still sees everything.
func TestEmptyIntersection(t *testing.T) {
	dom, _ := IntDomain(1, 100)
	sys, err := NewLocalSystem(Config{
		Owners: 3, Domain: dom, Verify: true, Seed: [32]byte{9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		// Owner j holds keys in its own disjoint decade.
		rows := []Row{
			{IntKey: uint64(10*j + 1)},
			{IntKey: uint64(10*j + 2)},
		}
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 {
		t.Errorf("disjoint PSI returned %v", res.Values)
	}
	cnt, err := sys.PSICount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != 0 {
		t.Errorf("disjoint count = %d", cnt.Count)
	}
	uni, err := sys.PSU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(uni.Cells) != 6 {
		t.Errorf("union size %d, want 6", len(uni.Cells))
	}
}

// TestIdenticalOwners: full overlap — intersection equals union.
func TestIdenticalOwners(t *testing.T) {
	dom, _ := IntDomain(1, 32)
	sys, err := NewLocalSystem(Config{Owners: 4, Domain: dom, Verify: true, Seed: [32]byte{17}})
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{{IntKey: 3}, {IntKey: 17}, {IntKey: 32}}
	for j := 0; j < 4; j++ {
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	psi, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	psu, err := sys.PSU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(psi.Cells) != 3 || len(psu.Cells) != 3 {
		t.Errorf("PSI %d PSU %d, want 3 and 3", len(psi.Cells), len(psu.Cells))
	}
}

// TestRepeatedExtremeQueries: re-running the same max query must give
// fresh, consistent answers (query ids must not collide with finished
// server-side round state).
func TestRepeatedExtremeQueries(t *testing.T) {
	sys, gt := randomSystem(t, 3, 60, 20, 1300, nil)
	for i := 0; i < 3; i++ {
		res, err := sys.PSIMax(context.Background(), "v")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for cell, pc := range res.PerCell {
			if pc.Value != gt.maxs[cell] {
				t.Fatalf("run %d: max at %d = %d, want %d", i, cell, pc.Value, gt.maxs[cell])
			}
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
