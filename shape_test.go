package prism

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"prism/internal/ownerengine"
	"prism/internal/transport"
)

// TestShapeParity is the completeness slice of the conformance matrix:
// every kind of the kind table, in every deployment shape the window and
// group settings can be configured into — in memory or disk-backed with
// 16-cell chunks and a cache that holds four of them, ShardCells 0, 10
// (not a divisor of the 64-cell domain), b and 2b, one server group or
// two — must answer exactly as the plaintext oracle does, and the window
// size must be invisible in the answer. ShardCells 0, b and 2b are one
// plan — a single window of the whole table — so they must also put the
// same number of requests and the same peak frame on the wire.
func TestShapeParity(t *testing.T) {
	const b = 64
	for _, disk := range []bool{false, true} {
		for _, groups := range []int{1, 2} {
			t.Run(fmt.Sprintf("disk=%v/groups=%d", disk, groups), func(t *testing.T) {
				var want map[string]string // the ShardCells 0 answers
				var onePlan shapeCost      // and their wire cost
				for _, shard := range []uint64{0, 10, b, 2 * b} {
					got, cost := shapeAnswers(t, disk, groups, b, shard)
					if want == nil {
						want, onePlan = got, cost
					}
					for name, fp := range got {
						if fp != want[name] {
							t.Errorf("ShardCells=%d: %s = %s, ShardCells=0 answered %s", shard, name, fp, want[name])
						}
					}
					if shard >= b && cost != onePlan {
						t.Errorf("ShardCells=%d cost %+v, ShardCells=0 cost %+v: the whole table is one window either way", shard, cost, onePlan)
					}
				}
			})
		}
	}
}

// shapeCost is what one shape's outsourcing and queries put on the wire.
type shapeCost struct {
	rpcs      int64 // owner→server requests
	peakFrame int64 // System.PeakFrameBytes
}

// shapeSystem builds one deployment shape over a b-cell domain: in
// memory, or disk-backed with 16-cell chunks and a cache that holds four
// of them.
func shapeSystem(t *testing.T, disk bool, groups int, b, shard uint64) *System {
	t.Helper()
	dom, err := IntDomain(1, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Owners:      4,
		Domain:      dom,
		AggColumns:  []string{"v"},
		MaxAggValue: 200_000, // median totals: ≤ 3 tuples × 50 000
		Verify:      true,
		Groups:      groups,
		Seed:        [32]byte{21, byte(groups)},
		EncodeWire:  true, // frames are encoded, so their peak size is measured
		ShardCells:  shard,
	}
	if disk {
		cfg.DiskDir = t.TempDir()
		cfg.ChunkCells, cfg.HotChunks = 16, 4*16*2 // four uint16 chunks: forces eviction
	}
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// shapeAnswers plants the same randomised data in one deployment shape
// whatever its window size and returns every kind's oracle-checked
// answer fingerprint with the shape's wire cost.
func shapeAnswers(t *testing.T, disk bool, groups int, b, shard uint64) (map[string]string, shapeCost) {
	t.Helper()
	sys := shapeSystem(t, disk, groups, b, shard)
	var rpcs atomic.Int64
	for g := 0; g < groups; g++ {
		for phi := 0; phi < 3; phi++ {
			sys.interceptGroupServer(g, phi, func(inner transport.Handler) transport.Handler {
				return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
					rpcs.Add(1)
					return inner.Handle(ctx, req)
				})
			})
		}
	}
	orc := loadPlanted(t, sys, plantedCells(sys, 5), int64(60+groups))
	answers := directAnswers(t, sys, orc)
	return answers, shapeCost{rpcs: rpcs.Load(), peakFrame: sys.PeakFrameBytes()}
}

// TestVerifiedKindsTakeTwoRounds holds the paper's claim — every
// operation in at most two owner↔server rounds — for verified queries,
// where it is hardest: a round is one request type (however many windows
// carry it), and the vector that verifies a round rides that round's
// messages. In memory and on disk, with one server group and with two,
// every set and count kind sends S0/S1/S2 one request type and reports
// one round; every aggregation sends its result-set request and
// AggRequest and reports two; an extreme sends PSIRequest and, beyond
// it, only the messages of its §6.3 rounds.
func TestVerifiedKindsTakeTwoRounds(t *testing.T) {
	extremeRounds := []string{"ExtremeSubmitRequest", "ExtremeFetchRequest", "ClaimSubmitRequest", "ClaimFetchRequest", "QueryDoneRequest"}
	for _, disk := range []bool{false, true} {
		for _, groups := range []int{1, 2} {
			t.Run(fmt.Sprintf("disk=%v/groups=%d", disk, groups), func(t *testing.T) {
				sys := shapeSystem(t, disk, groups, 64, 10)
				loadPlanted(t, sys, plantedCells(sys, 5), 7)
				counts := &callCounts{n: make(map[string]int)}
				for g := 0; g < groups; g++ {
					for phi := 0; phi < 3; phi++ {
						sys.interceptGroupServer(g, phi, counts.wrap)
					}
				}
				for _, name := range ownerengine.KindNames() {
					kind, _ := ownerengine.KindByName(name)
					clear(counts.n)
					resp := sys.execute(context.Background(), Request{Op: kind, Cols: kindCols(kind)})
					if resp.Err != nil {
						t.Fatalf("%s: %v", name, resp.Err)
					}
					set, count := "PSIRequest", "CountRequest"
					if strings.HasPrefix(name, "psu") {
						set, count = "PSURequest", "PSURequest" // PSU count is PSU, permuted
					}
					var want []string
					rounds := 0
					switch kind.Family() {
					case ownerengine.FamilySet:
						want, rounds = []string{set}, 1
					case ownerengine.FamilyCount:
						want, rounds = []string{count}, 1
					case ownerengine.FamilyAgg:
						want, rounds = []string{"AggRequest", set}, 2
					case ownerengine.FamilyExtreme:
						for _, typ := range extremeRounds {
							delete(counts.n, typ)
						}
						want = []string{set}
					}
					var got []string
					for typ := range counts.n {
						got = append(got, typ)
					}
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Errorf("%s: servers received %v, want %v", name, counts.n, want)
					}
					if rounds != 0 && resp.Result.Stats.Rounds != rounds {
						t.Errorf("%s: reports %d rounds, want %d", name, resp.Result.Stats.Rounds, rounds)
					}
				}
			})
		}
	}
}
