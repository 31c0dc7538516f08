// Package benchx drives the reproduction of the tables and figures in
// the paper's evaluation (§8) for cmd/prism-bench. The Experiments
// table is the experiment index; prism-bench -h prints it, and
// docs/OPERATIONS.md explains how to read the output.
package benchx

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prism"
	"prism/internal/bucket"
	"prism/internal/ownerengine"
	"prism/internal/prg"
	"prism/internal/report"
	"prism/internal/workload"
)

// Experiment is one named, runnable experiment.
type Experiment struct {
	Name string
	Doc  string // one line: what it reproduces or measures
	Run  func(ctx context.Context, sc Scale) ([]*report.Table, error)
}

// Experiments is the experiment index, in the order "all" runs it.
// prism-bench's -exp usage, its -h index and its unknown-experiment
// error are generated from this table.
var Experiments = []Experiment{
	{"exp1", "Exp 1 / Figure 3: per-operator time vs server threads, with the data-fetch series", Exp1},
	{"table12", "Table 12: sum and max over 1-4 attributes", Table12},
	{"exp2", "Exp 2 / Figure 4: server time vs number of owners (10-50)", Exp2},
	{"exp3", "Exp 3 / Table 14: owner-side result-construction time", Exp3},
	{"exp4", "Exp 4 / Figure 5: bucketization, actual vs real domain size per fill factor", Exp4},
	{"sharegen", "§8.1: share-generation time with and without verification columns", ShareGen},
	{"table13", "Table 13: cross-system comparison at 2 owners, plus the naive pairwise baseline", Table13},
	{"fanout", "ablation of Exp 4: bucket-tree fanout vs actual domain size", FanoutAblation},
}

// Select resolves prism-bench's -exp value: one experiment by name
// (case-insensitive), or every experiment in table order for "all".
func Select(name string) ([]Experiment, error) {
	if strings.EqualFold(name, "all") {
		return Experiments, nil
	}
	for _, e := range Experiments {
		if strings.EqualFold(name, e.Name) {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", name, ExperimentNames("|"))
}

// ExperimentNames joins every experiment name and "all" with sep.
func ExperimentNames(sep string) string {
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), sep)
}

// SystemSpec sizes one benchmark deployment.
type SystemSpec struct {
	Owners       int
	Domain       uint64
	KeysPerOwner int
	CommonKeys   int
	DiskDir      string // non-empty → disk-backed servers (fetch timing)
	AggCols      []string
	Verify       bool
	MaxValue     uint64
	Seed         string
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
		AggColumns:  spec.AggCols,
		MaxAggValue: spec.MaxValue * uint64(spec.Owners+1),
		Verify:      spec.Verify,
		Seed:        seed,
		DiskDir:     spec.DiskDir,
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
	CacheHits       int // column reads served by the servers' table-epoch caches
}

// Ops enumerates the Figure 3 operators in presentation order.
var Ops = []string{"PSI", "PSU", "PSI Count", "PSI Sum", "PSI Avg", "PSI Median", "PSI Max"}

// RunOp executes one operator (a name from the kind table, e.g. "PSI
// Sum") end to end and returns its timing. col is the column of the
// kinds that take one.
func RunOp(ctx context.Context, sys *prism.System, op, col string) (OpResult, error) {
	kind, ok := ownerengine.KindByName(op)
	if !ok {
		return OpResult{}, fmt.Errorf("benchx: unknown op %q", op)
	}
	req := prism.Request{Op: kind}
	if f := kind.Family(); f == ownerengine.FamilyAgg || f == ownerengine.FamilyExtreme {
		req.Cols = []string{col}
	}
	return runRequest(ctx, sys, op, req)
}

// runRequest times one query through the system's scheduler.
func runRequest(ctx context.Context, sys *prism.System, label string, req prism.Request) (OpResult, error) {
	start := time.Now()
	r := sys.QueryAsync(ctx, req).Wait()
	if r.Err != nil {
		return OpResult{}, fmt.Errorf("benchx: %s: %w", label, r.Err)
	}
	st := r.Result.Stats
	size := len(r.Result.Cells)
	if req.Op.Family() == ownerengine.FamilyCount {
		size = r.Result.Count
	}
	return OpResult{
		Op:              label,
		WallNS:          time.Since(start).Nanoseconds(),
		ServerComputeNS: st.Server.ComputeNS,
		ServerFetchNS:   st.Server.FetchNS,
		OwnerNS:         st.OwnerNS,
		ResultSize:      size,
		CacheHits:       st.Server.CacheHits,
	}, nil
}

// MultiColSum runs one PSI-sum over the first n workload columns
// (Table 12's sum rows).
func MultiColSum(ctx context.Context, sys *prism.System, n int) (OpResult, error) {
	return runRequest(ctx, sys, fmt.Sprintf("Sum/%d", n), prism.Request{Op: prism.OpPSISum, Cols: workload.Columns[:n]})
}

// MultiColMax runs PSI-max over each of the first n columns (Table 12's
// max rows: the paper's multi-attribute max computes per attribute).
func MultiColMax(ctx context.Context, sys *prism.System, n int) (OpResult, error) {
	start := time.Now()
	total := OpResult{Op: fmt.Sprintf("Max/%d", n)}
	for _, col := range workload.Columns[:n] {
		r, err := RunOp(ctx, sys, "PSI Max", col)
		if err != nil {
			return OpResult{}, err
		}
		total.ServerComputeNS += r.ServerComputeNS
		total.ServerFetchNS += r.ServerFetchNS
		total.OwnerNS += r.OwnerNS
		total.ResultSize = r.ResultSize
	}
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
