package prism

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"prism/internal/baseline"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// extremeConfig is the deployment shape of the vector-round tests: a
// 256-cell domain, verification on, in memory with monolithic frames or
// disk-backed with 32-cell windows and a hot-chunk cache.
func extremeConfig(t testing.TB, owners, groups int, disk bool) Config {
	t.Helper()
	dom, err := IntDomain(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Owners:     owners,
		Domain:     dom,
		AggColumns: []string{"v"},
		// Bounds median's per-owner totals too (≤ 3 tuples × 50 000).
		MaxAggValue: 200_000,
		Verify:      true,
		Groups:      groups,
		Seed:        [32]byte{16, byte(owners), byte(groups)},
	}
	if disk {
		cfg.DiskDir = t.TempDir()
		cfg.ShardCells, cfg.ChunkCells, cfg.HotChunks = 32, 32, 1<<20
	}
	return cfg
}

// plantedCells picks k cells every owner will hold, straddling the group
// boundaries first: the last cell of group g−1 and the first of group g
// for every boundary, then the domain's two ends, then a spread of
// interior cells. Returned ascending.
func plantedCells(sys *System, k int) []uint64 {
	var pick []uint64
	for g := 1; g < sys.NumGroups(); g++ {
		start := sys.Owner(0).Engine().GroupView(g).Start
		pick = append(pick, start-1, start)
	}
	b := sys.Owner(0).Engine().DomainB()
	pick = append(pick, 0, b-1)
	for c := uint64(5); len(pick) < k; c += 3 {
		if !slices.Contains(pick, c) {
			pick = append(pick, c)
		}
	}
	pick = pick[:k]
	slices.Sort(pick)
	return pick
}

// extremeOracle is the plaintext answer to max/min/median over the
// owners' tuples: owner j holds vals[j][i] at cell sets[j][i].
type extremeOracle struct {
	sets, vals [][]uint64
	cells      []uint64              // the intersection, ascending
	local      [][]map[uint64]uint64 // [kind][owner][cell] → the owner's own max / min / total
}

// rebuild recomputes the answers from the tuples.
func (orc *extremeOracle) rebuild() {
	orc.local = make([][]map[uint64]uint64, 3)
	for kind := range orc.local {
		orc.local[kind] = make([]map[uint64]uint64, len(orc.sets))
	}
	for j, cells := range orc.sets {
		maxs, mins, totals := map[uint64]uint64{}, map[uint64]uint64{}, map[uint64]uint64{}
		for i, cell := range cells {
			v := orc.vals[j][i]
			if _, seen := totals[cell]; !seen {
				mins[cell] = v
			}
			maxs[cell] = max(maxs[cell], v)
			mins[cell] = min(mins[cell], v)
			totals[cell] += v
		}
		orc.local[protocol.KindMax][j], orc.local[protocol.KindMin][j], orc.local[protocol.KindMedian][j] = maxs, mins, totals
	}
	orc.cells = baseline.PlaintextIntersection(orc.sets)
	slices.Sort(orc.cells)
}

// loadPlanted gives every owner one to three random-valued tuples at each
// planted cell plus random tuples at cells no full set of owners shares,
// outsources, and returns the plaintext oracle.
func loadPlanted(t testing.TB, sys *System, planted []uint64, seed int64) *extremeOracle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := sys.Owners()
	b := sys.Owner(0).Engine().DomainB()
	orc := &extremeOracle{sets: make([][]uint64, m), vals: make([][]uint64, m)}
	for j := 0; j < m; j++ {
		var cells, vals []uint64
		add := func(cell uint64) {
			cells, vals = append(cells, cell), append(vals, 1+uint64(rng.Int63n(50_000)))
		}
		for _, cell := range planted {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				add(cell)
			}
		}
		for i := 0; i < 30; i++ {
			// Owner cell%m never holds the cell, so it cannot be common.
			if cell := uint64(rng.Int63n(int64(b))); !slices.Contains(planted, cell) && int(cell)%m != j {
				add(cell)
			}
		}
		rng.Shuffle(len(cells), func(a, b int) {
			cells[a], cells[b] = cells[b], cells[a]
			vals[a], vals[b] = vals[b], vals[a]
		})
		if err := sys.Owner(j).LoadCells(cells, map[string][]uint64{"v": vals}); err != nil {
			t.Fatal(err)
		}
		orc.sets[j], orc.vals[j] = cells, vals
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	orc.rebuild()
	return orc
}

// middleOf is the plaintext median: the middle value, or for an even
// count the two middle values and their mean rounded down.
func middleOf(vals []uint64) ExtremeCell {
	slices.Sort(vals)
	if n := len(vals); n%2 == 0 {
		return ExtremeCell{Value: (vals[n/2-1] + vals[n/2]) / 2, MedianPair: []uint64{vals[n/2-1], vals[n/2]}}
	}
	return ExtremeCell{Value: vals[len(vals)/2]}
}

// check compares one extreme result with the oracle: the cell list, every
// cell's value, holders and median pair, and the query-global outcome.
func (orc *extremeOracle) check(t *testing.T, kind protocol.ExtremeKind, res *ExtremeResult) {
	t.Helper()
	if !slices.Equal(res.Cells, orc.cells) {
		t.Fatalf("%v cells = %v, want %v", kind, res.Cells, orc.cells)
	}
	if len(res.PerCell) != len(orc.cells) {
		t.Fatalf("%v answered %d cells, want %d", kind, len(res.PerCell), len(orc.cells))
	}
	local := orc.local[kind]
	want := make(map[uint64]ExtremeCell, len(orc.cells))
	var pool []uint64
	for _, cell := range orc.cells {
		vals := make([]uint64, len(local))
		for j := range local {
			vals[j] = local[j][cell]
		}
		pool = append(pool, vals...)
		var w ExtremeCell
		if kind == protocol.KindMedian {
			w = middleOf(vals)
		} else {
			w.Value = slices.Max(vals)
			if kind == protocol.KindMin {
				w.Value = slices.Min(vals)
			}
			for j, v := range vals {
				if v == w.Value {
					w.Owners = append(w.Owners, j)
				}
			}
		}
		want[cell] = w
		if got := res.PerCell[cell]; !reflect.DeepEqual(got, w) {
			t.Errorf("%v at cell %d = %+v, want %+v", kind, cell, got, w)
		}
	}
	switch {
	case len(orc.cells) == 0:
		if res.Global != nil {
			t.Errorf("%v over an empty intersection has a global outcome %+v", kind, res.Global)
		}
	case res.Global == nil:
		t.Errorf("%v over %d cells has no global outcome", kind, len(orc.cells))
	case kind == protocol.KindMedian:
		if w := middleOf(pool); !reflect.DeepEqual(*res.Global, w) || res.GlobalCell != 0 {
			t.Errorf("global median = %+v at %d, want %+v", *res.Global, res.GlobalCell, w)
		}
	default:
		best := want[orc.cells[0]].Value
		for _, w := range want {
			if kind == protocol.KindMax {
				best = max(best, w.Value)
			} else {
				best = min(best, w.Value)
			}
		}
		// Equal extremes at two cells tie on random masks: any of them may win.
		if w, ok := want[res.GlobalCell]; !ok || res.Global.Value != best || !reflect.DeepEqual(*res.Global, w) {
			t.Errorf("global %v = %+v at cell %d, want %d with that cell's holders %+v", kind, *res.Global, res.GlobalCell, best, w)
		}
	}
}

// TestExtremeVectorRoundMatchesOracle is the differential test of the
// vector round: max, min and median equal the plaintext oracle — every
// cell's value and holders, the global outcome and its cell — for 0, 1, 2
// and 64 intersection cells placed on both sides of every group boundary,
// over 1, 2 and 3 groups, odd and even owner counts (even makes median a
// pair), in memory and on the disk-backed, sharded, cached store.
func TestExtremeVectorRoundMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, disk := range []bool{false, true} {
		for _, groups := range []int{1, 2, 3} {
			for _, k := range []int{0, 1, 2, 64} {
				owners := 3 + (groups+k)%2
				t.Run(fmt.Sprintf("disk=%v/groups=%d/k=%d/owners=%d", disk, groups, k, owners), func(t *testing.T) {
					sys, err := NewLocalSystem(extremeConfig(t, owners, groups, disk))
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					orc := loadPlanted(t, sys, plantedCells(sys, k), int64(100*groups+k))
					if len(orc.cells) != k {
						t.Fatalf("oracle intersection has %d cells, planted %d", len(orc.cells), k)
					}
					for kind, run := range []func(context.Context, string) (*ExtremeResult, error){sys.PSIMax, sys.PSIMin, sys.PSIMedian} {
						res, err := run(ctx, "v")
						if err != nil {
							t.Fatalf("%v: %v", protocol.ExtremeKind(kind), err)
						}
						orc.check(t, protocol.ExtremeKind(kind), res)
					}
					assertNoSessions(t, sys)
				})
			}
		}
	}
}

// callCounts counts the requests the wrapped nodes receive, by message
// type.
type callCounts struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *callCounts) wrap(inner transport.Handler) transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		c.mu.Lock()
		c.n[strings.TrimPrefix(fmt.Sprintf("%T", req), "protocol.")]++
		c.mu.Unlock()
		return inner.Handle(ctx, req)
	})
}

// extremeRoundCalls runs one PSIMax over k planted cells on two groups at
// the benchmark's owner count and returns how many messages of the
// extreme rounds — submit, announce, fetch, claim, reduce, retire — every
// server and the announcer received, by type.
func extremeRoundCalls(t *testing.T, k int) map[string]int {
	t.Helper()
	sys, err := NewLocalSystem(extremeConfig(t, 10, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	orc := loadPlanted(t, sys, plantedCells(sys, k), 7)
	counts := &callCounts{n: make(map[string]int)}
	for g := 0; g < sys.NumGroups(); g++ {
		for phi := 0; phi < 3; phi++ {
			sys.interceptGroupServer(g, phi, counts.wrap)
		}
	}
	sys.network.Register("announcer", counts.wrap(sys.ann))
	res, err := sys.PSIMax(context.Background(), "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCell) != k {
		t.Fatalf("max answered %d cells, want %d", len(res.PerCell), k)
	}
	orc.check(t, protocol.KindMax, res)
	delete(counts.n, "PSIRequest")
	return counts.n
}

// TestExtremeRoundCallCountIndependentOfCells pins the count the vector
// round exists for: the messages of a max query's extreme rounds number
// the same for 4 and for 64 intersection cells — 66 per group (each of 10
// owners submits, fetches and claims at 2 servers; each server announces
// and polls once; 2 claim fetches) plus one reduce and 3 retires per group.
func TestExtremeRoundCallCountIndependentOfCells(t *testing.T) {
	few, many := extremeRoundCalls(t, 4), extremeRoundCalls(t, 64)
	if !reflect.DeepEqual(few, many) {
		t.Errorf("extreme-round messages depend on the cell count:\n k=4:  %v\n k=64: %v", few, many)
	}
	want := map[string]int{
		"ExtremeSubmitRequest": 40, "AnnounceRequest": 4,
		"ExtremeFetchRequest": 40, "AnnounceFetchRequest": 4,
		"ClaimSubmitRequest": 40, "ClaimFetchRequest": 4,
		"ExtremeReduceRequest": 1, "QueryDoneRequest": 6,
	}
	if !reflect.DeepEqual(many, want) {
		t.Errorf("extreme-round messages at k=64: %v, want %v", many, want)
	}
	total := 0
	for _, n := range many {
		total += n
	}
	t.Logf("PSIMax, 10 owners, 2 groups, k=64: %d extreme-round messages", total)
}

// sessionCounts snapshots the live query sessions of every server engine
// and the announcer.
func sessionCounts(sys *System) []int {
	var out []int
	for _, grp := range sys.servers {
		for _, e := range grp {
			out = append(out, e.Sessions())
		}
	}
	return append(out, sys.ann.Sessions())
}

// TestExtremeSessionsRetiredOnEveryPath: after a max/min/median query —
// answered, failed by a server or the announcer mid-round, or cancelled
// by its caller mid-round — every server's and the announcer's session
// count is back where it was before the query.
func TestExtremeSessionsRetiredOnEveryPath(t *testing.T) {
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			sys, err := NewLocalSystem(extremeConfig(t, 3, groups, false))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			loadPlanted(t, sys, plantedCells(sys, 6), 11)
			before := sessionCounts(sys)
			last := groups - 1
			settled := func(what string) {
				t.Helper()
				if after := sessionCounts(sys); !reflect.DeepEqual(after, before) {
					t.Errorf("%s: sessions %v, before the query %v", what, after, before)
				}
			}

			for _, run := range []func(context.Context, string) (*ExtremeResult, error){sys.PSIMax, sys.PSIMin, sys.PSIMedian} {
				if _, err := run(context.Background(), "v"); err != nil {
					t.Fatal(err)
				}
			}
			settled("answered queries")

			isType := func(want any) reqMatcher {
				return func(req any) bool { return reflect.TypeOf(req) == reflect.TypeOf(want) }
			}
			for _, match := range []any{
				protocol.ExtremeSubmitRequest{}, protocol.ExtremeFetchRequest{},
				protocol.ClaimSubmitRequest{}, protocol.ClaimFetchRequest{},
			} {
				sys.interceptGroupServer(last, 1, failOn(isType(match)))
				if _, err := sys.PSIMax(context.Background(), "v"); err == nil {
					t.Fatalf("max survived a failing %T", match)
				}
				sys.restoreGroupServer(last, 1)
				settled(fmt.Sprintf("server failing %T", match))
			}
			for _, match := range []any{protocol.AnnounceRequest{}, protocol.AnnounceFetchRequest{}, protocol.ExtremeReduceRequest{}} {
				sys.network.Register("announcer", failOn(isType(match))(sys.ann))
				if _, err := sys.PSIMedian(context.Background(), "v"); err == nil {
					t.Fatalf("median survived a failing %T", match)
				}
				sys.network.Register("announcer", sys.ann)
				settled(fmt.Sprintf("announcer failing %T", match))
			}

			// The caller gives up mid-round: the moment a server sees the
			// second owner's submit (resp. the first claim).
			for _, match := range []reqMatcher{
				func(req any) bool { r, ok := req.(protocol.ExtremeSubmitRequest); return ok && r.Owner == 1 },
				isType(protocol.ClaimSubmitRequest{}),
			} {
				ctx, cancel := context.WithCancel(context.Background())
				sys.interceptGroupServer(last, 0, func(inner transport.Handler) transport.Handler {
					return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
						if match(req) {
							cancel()
						}
						return inner.Handle(ctx, req)
					})
				})
				if _, err := sys.PSIMax(ctx, "v"); err == nil {
					t.Fatal("max survived its caller's cancellation")
				}
				cancel()
				sys.restoreGroupServer(last, 0)
				settled("cancelled query")
			}

			if _, err := sys.PSIMax(context.Background(), "v"); err != nil {
				t.Fatalf("max after the faults: %v", err)
			}
			settled("query after the faults")
		})
	}
}

// TestExtremeMissingTupleNamesOwnerAndCell: an owner whose private table
// no longer holds an intersection cell (it reloaded after outsourcing)
// fails the query with an error naming that owner and that cell, and
// leaves no session behind.
func TestExtremeMissingTupleNamesOwnerAndCell(t *testing.T) {
	sys, err := NewLocalSystem(extremeConfig(t, 3, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	planted := plantedCells(sys, 4)
	loadPlanted(t, sys, planted, 5)
	// Owner 1 drops its tuples at the third planted cell.
	keep := []uint64{planted[0], planted[1], planted[3]}
	if err := sys.Owner(1).LoadCells(keep, map[string][]uint64{"v": {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	_, err = sys.PSIMin(context.Background(), "v")
	want := fmt.Sprintf("owner 1 has no tuple at intersection cell %d", planted[2])
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one containing %q", err, want)
	}
	assertNoSessions(t, sys)
}
