// Package benchx drives the reproduction of every table and figure in
// the paper's evaluation (§8). It is shared by cmd/prism-bench (the
// human-facing harness) and the root bench_test.go (testing.B benches).
//
// Experiment index (docs/OPERATIONS.md explains how to read the output):
//
//	Exp1 / Figure 3  — time vs #threads per operator, incl. data fetch
//	Table 12         — multi-column sum/max (1-4 attributes)
//	Exp2 / Figure 4  — server time vs #owners (10-50)
//	Exp3 / Table 14  — owner-side result construction time
//	Exp4 / Figure 5  — bucketization actual-vs-real domain size
//	§8.1             — share generation time
//	Table 13         — cross-system comparison @ 2 owners
package benchx

import (
	"context"
	"fmt"
	"time"

	"prism"
	"prism/internal/bucket"
	"prism/internal/prg"
	"prism/internal/workload"
)

// SystemSpec sizes one benchmark deployment.
type SystemSpec struct {
	Owners       int
	Domain       uint64
	Groups       int // server groups partitioning the domain (0/1 = one)
	KeysPerOwner int
	CommonKeys   int
	Threads      int
	DiskDir      string // non-empty → disk-backed servers (fetch timing)
	HotChunks    uint64 // hot-chunk cache byte budget on disk-backed servers (0 = cache off)
	ChunkCells   uint64 // share-store chunk size in cells (0 = default)
	ShardCells   uint64 // shard size for O(b) exchanges (0 = monolithic)
	EncodeWire   bool   // wire-frame round trip per call (frame-size measurement)
	AggCols      []string
	Verify       bool
	MaxValue     uint64
	Seed         string
	DeltaMax     int           // per-table delta-log compaction threshold (0 = default)
	CompactEvery time.Duration // background compaction interval (0 = off)
}

func (s SystemSpec) withDefaults() SystemSpec {
	if s.Owners == 0 {
		s.Owners = 10
	}
	if s.Domain == 0 {
		s.Domain = 1 << 20
	}
	if s.KeysPerOwner == 0 {
		k := int(s.Domain / 10)
		if k > 100_000 {
			k = 100_000
		}
		if k < 1 {
			k = 1
		}
		s.KeysPerOwner = k
	}
	if s.CommonKeys == 0 {
		s.CommonKeys = 4
	}
	if s.MaxValue == 0 {
		s.MaxValue = 1000
	}
	if len(s.AggCols) == 0 {
		s.AggCols = []string{"DT"}
	}
	if s.Seed == "" {
		s.Seed = "benchx"
	}
	return s
}

// Build generates the workload, wires a local system, loads and
// outsources all owners. The returned ShareGenStats is the summed
// Phase-1 cost (the §8.1 share-generation metric).
func Build(spec SystemSpec) (*prism.System, []*workload.OwnerData, prism.ShareGenStats, error) {
	var sg prism.ShareGenStats
	spec = spec.withDefaults()
	data, err := workload.Generate(workload.Config{
		Owners:       spec.Owners,
		DomainSize:   spec.Domain,
		KeysPerOwner: spec.KeysPerOwner,
		CommonKeys:   spec.CommonKeys,
		MaxValue:     spec.MaxValue,
		Seed:         prg.SeedFromString(spec.Seed),
	})
	if err != nil {
		return nil, nil, sg, err
	}
	dom, err := prism.IntDomain(1, spec.Domain)
	if err != nil {
		return nil, nil, sg, err
	}
	var seed [32]byte
	copy(seed[:], spec.Seed)
	sys, err := prism.NewLocalSystem(prism.Config{
		Owners:      spec.Owners,
		Domain:      dom,
		Groups:      spec.Groups,
		AggColumns:  spec.AggCols,
		MaxAggValue: spec.MaxValue * uint64(spec.Owners+1),
		Verify:      spec.Verify,
		Threads:     spec.Threads,
		Seed:        seed,
		DiskDir:     spec.DiskDir,
		HotChunks:   spec.HotChunks,
		ChunkCells:  spec.ChunkCells,
		ShardCells:  spec.ShardCells,
		EncodeWire:  spec.EncodeWire,

		DeltaMaxEntries: spec.DeltaMax,
		CompactInterval: spec.CompactEvery,
	})
	if err != nil {
		return nil, nil, sg, err
	}
	for j, d := range data {
		// Workload cells are already 0-based indices into the 1..Domain
		// integer domain.
		if err := sys.Owner(j).LoadCells(d.Cells, d.Aggs); err != nil {
			return nil, nil, sg, err
		}
	}
	sg, err = sys.OutsourceAll(context.Background())
	if err != nil {
		return nil, nil, sg, err
	}
	return sys, data, sg, nil
}

// OpResult is one timed operator run.
type OpResult struct {
	Op              string
	WallNS          int64
	ServerComputeNS int64
	ServerFetchNS   int64
	OwnerNS         int64
	ResultSize      int
	CacheHits       int // column reads served by the hot-chunk cache
}

// Ops enumerates the Figure 3 operators in presentation order.
var Ops = []string{"PSI", "PSU", "PSI Count", "PSI Sum", "PSI Avg", "PSI Median", "PSI Max"}

// RunOp executes one operator end to end and returns its timing.
func RunOp(ctx context.Context, sys *prism.System, op, col string) (OpResult, error) {
	start := time.Now()
	var stats prism.QueryStats
	size := 0
	var err error
	switch op {
	case "PSI":
		var r *prism.SetResult
		r, err = sys.PSI(ctx)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	case "PSU":
		var r *prism.SetResult
		r, err = sys.PSU(ctx)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	case "PSI Count":
		var r *prism.CountResult
		r, err = sys.PSICount(ctx)
		if r != nil {
			stats, size = r.Stats, r.Count
		}
	case "PSU Count":
		var r *prism.CountResult
		r, err = sys.PSUCount(ctx)
		if r != nil {
			stats, size = r.Stats, r.Count
		}
	case "PSI Sum":
		var r *prism.AggregateResult
		r, err = sys.PSISum(ctx, col)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	case "PSI Avg":
		var r *prism.AggregateResult
		r, err = sys.PSIAvg(ctx, col)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	case "PSI Median":
		var r *prism.ExtremeResult
		r, err = sys.PSIMedian(ctx, col)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	case "PSI Max":
		var r *prism.ExtremeResult
		r, err = sys.PSIMax(ctx, col)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	case "PSI Min":
		var r *prism.ExtremeResult
		r, err = sys.PSIMin(ctx, col)
		if r != nil {
			stats, size = r.Stats, len(r.Cells)
		}
	default:
		return OpResult{}, fmt.Errorf("benchx: unknown op %q", op)
	}
	if err != nil {
		return OpResult{}, fmt.Errorf("benchx: %s: %w", op, err)
	}
	return OpResult{
		Op:              op,
		WallNS:          time.Since(start).Nanoseconds(),
		ServerComputeNS: stats.ServerComputeNS,
		ServerFetchNS:   stats.ServerFetchNS,
		OwnerNS:         stats.OwnerNS,
		ResultSize:      size,
		CacheHits:       stats.ServerCacheHits,
	}, nil
}

// MultiColSum runs one PSI-sum over the first n workload columns
// (Table 12's sum rows).
func MultiColSum(ctx context.Context, sys *prism.System, n int) (OpResult, error) {
	cols := workload.Columns[:n]
	start := time.Now()
	r, err := sys.PSISum(ctx, cols...)
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{
		Op:              fmt.Sprintf("Sum/%d", n),
		WallNS:          time.Since(start).Nanoseconds(),
		ServerComputeNS: r.Stats.ServerComputeNS,
		ServerFetchNS:   r.Stats.ServerFetchNS,
		OwnerNS:         r.Stats.OwnerNS,
		ResultSize:      len(r.Cells),
	}, nil
}

// MultiColMax runs PSI-max over each of the first n columns (Table 12's
// max rows: the paper's multi-attribute max computes per attribute).
func MultiColMax(ctx context.Context, sys *prism.System, n int) (OpResult, error) {
	start := time.Now()
	var total OpResult
	for _, col := range workload.Columns[:n] {
		r, err := sys.PSIMax(ctx, col)
		if err != nil {
			return OpResult{}, err
		}
		total.ServerComputeNS += r.Stats.ServerComputeNS
		total.ServerFetchNS += r.Stats.ServerFetchNS
		total.OwnerNS += r.Stats.OwnerNS
		total.ResultSize = len(r.Cells)
	}
	total.Op = fmt.Sprintf("Max/%d", n)
	total.WallNS = time.Since(start).Nanoseconds()
	return total, nil
}

// Fig5Point computes one Figure 5 data point: actual domain size (nodes
// PSI executes on) with bucketization at the given fill factor, vs the
// flat domain. fill is a fraction (1.0 = 100%).
type Fig5Point struct {
	FillPercent float64
	ActualWith  uint64
	ActualFlat  uint64
	TotalNodes  uint64
}

// Fig5 simulates the Exp-4 traversal at full paper scale. For fill = 1
// the whole tree is visited (computed analytically); otherwise occupied
// leaves are sampled with replacement (paper: "generated the data
// randomly").
func Fig5(leaves uint64, fanout int, fills []float64, seed string) []Fig5Point {
	var out []Fig5Point
	for _, fill := range fills {
		var st bucket.OccupiedStats
		if fill >= 1 {
			st = fullTreeStats(leaves, fanout)
		} else {
			n := int(float64(leaves) * fill)
			if n < 1 {
				n = 1
			}
			rng := prg.New(prg.SeedFromString(seed + fmt.Sprint(fill)))
			cells := make([]uint64, n)
			for i := range cells {
				cells[i] = rng.Uint64n(leaves)
			}
			st = bucket.SimulateSharedOccupancy(leaves, fanout, bucket.OccupyLevels(leaves, fanout, cells))
		}
		out = append(out, Fig5Point{
			FillPercent: fill * 100,
			ActualWith:  st.Visited,
			ActualFlat:  leaves,
			TotalNodes:  st.TotalNodes,
		})
	}
	return out
}

// fullTreeStats computes the 100%-fill traversal analytically: every
// node is common, so PSI executes on the entire tree.
func fullTreeStats(leaves uint64, fanout int) bucket.OccupiedStats {
	var st bucket.OccupiedStats
	size := leaves
	st.TotalNodes = size
	for size > 1 {
		size = (size + uint64(fanout) - 1) / uint64(fanout)
		st.TotalNodes += size
	}
	st.Visited = st.TotalNodes
	st.Rounds = 1
	for s := leaves; s > 1; s = (s + uint64(fanout) - 1) / uint64(fanout) {
		st.Rounds++
	}
	return st
}
