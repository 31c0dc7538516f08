package prism

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
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

// serverCalls counts, per group and server, the requests of each message
// type the wrapped servers receive.
type serverCalls [][3]*callCounts

func interceptAll(sys *System) serverCalls {
	calls := make(serverCalls, sys.NumGroups())
	for g := range calls {
		for phi := range calls[g] {
			calls[g][phi] = &callCounts{n: make(map[string]int)}
			sys.interceptGroupServer(g, phi, calls[g][phi].wrap)
		}
	}
	return calls
}

func (sc serverCalls) reset() {
	for g := range sc {
		for _, c := range sc[g] {
			c.mu.Lock()
			clear(c.n)
			c.mu.Unlock()
		}
	}
}

// deltaSegments counts the delta-log segment files of group g's server
// phi for table "main".
func deltaSegments(t *testing.T, sys *System, g, phi int) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(sys.cfg.DiskDir, serverDiskDir(g, phi), tableName, "deltalog", "*.dseg"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// TestUpdateIsOneExchange holds an update to the unit the owner makes it:
// whatever the window size, in memory and on disk, over one server group
// and two, a single append, an append with a removal and a 40-row batch
// each reach every server of every touched group as exactly one
// StoreDeltaRequest — and no server of an untouched group as any —, grow
// each of those servers' delta logs by exactly one segment, leave S0 and
// S1 with the same backlog, and every kind of the kind table answering
// as the plaintext oracle over the updated tuples does.
func TestUpdateIsOneExchange(t *testing.T) {
	const b = 64
	ctx := context.Background()
	for _, disk := range []bool{false, true} {
		for _, shard := range []uint64{0, 10, b} {
			for _, groups := range []int{1, 2} {
				t.Run(fmt.Sprintf("disk=%v/ShardCells=%d/groups=%d", disk, shard, groups), func(t *testing.T) {
					sys := shapeSystem(t, disk, groups, b, shard)
					orc := loadPlanted(t, sys, plantedCells(sys, 5), int64(80+groups))
					calls := interceptAll(sys)
					var batchCells, batchVals []uint64
					for i := uint64(0); i < 40; i++ {
						batchCells, batchVals = append(batchCells, (i*37+3)%b), append(batchVals, 1+i)
					}
					for _, up := range []struct {
						name              string
						owner             int
						addCells, addVals []uint64
						remove            int // tuples of the owner's to remove, from the front
					}{
						{"single add", 1, []uint64{7}, []uint64{123}, 0},
						{"add+remove", 2, []uint64{b - 2}, []uint64{45}, 1},
						{"40-row batch", 0, batchCells, batchVals, 0},
					} {
						j := up.owner
						rmCells, rmVals := orc.sets[j][:up.remove], orc.vals[j][:up.remove]
						touched := make([]bool, groups)
						for _, c := range append(slices.Clone(up.addCells), rmCells...) {
							g := 0
							for g+1 < groups && c >= sys.Owner(0).Engine().GroupView(g+1).Start {
								g++
							}
							touched[g] = true
						}
						segsBefore := make([][3]int, groups)
						for g := range segsBefore {
							for phi := range segsBefore[g] {
								segsBefore[g][phi] = deltaSegments(t, sys, g, phi)
							}
						}
						calls.reset()
						st, err := sys.Owner(j).UpdateCells(ctx, up.addCells, map[string][]uint64{"v": up.addVals}, rmCells, map[string][]uint64{"v": rmVals})
						if err != nil {
							t.Fatalf("%s: %v", up.name, err)
						}
						if st.Cells == 0 {
							t.Errorf("%s: reports no changed cell", up.name)
						}
						for g := 0; g < groups; g++ {
							want := map[string]int{}
							if touched[g] {
								want["StoreDeltaRequest"] = 1
							}
							for phi := 0; phi < 3; phi++ {
								if got := calls[g][phi].n; !maps.Equal(got, want) {
									t.Errorf("%s: group %d server %d received %v, want %v", up.name, g, phi, got, want)
								}
								if grew := deltaSegments(t, sys, g, phi) - segsBefore[g][phi]; disk && grew != want["StoreDeltaRequest"] {
									t.Errorf("%s: group %d server %d delta log grew by %d segments, want %d", up.name, g, phi, grew, want["StoreDeltaRequest"])
								}
							}
							if b0, b1 := sys.GroupServerEngine(g, 0).DeltaBacklog(tableName), sys.GroupServerEngine(g, 1).DeltaBacklog(tableName); b0 != b1 || (touched[g] && b0 == 0) {
								t.Errorf("%s: group %d delta backlog S0 %d, S1 %d", up.name, g, b0, b1)
							}
						}
						orc.sets[j] = append(slices.Clone(orc.sets[j][up.remove:]), up.addCells...)
						orc.vals[j] = append(slices.Clone(orc.vals[j][up.remove:]), up.addVals...)
						orc.rebuild()
						directAnswers(t, sys, orc)
					}
				})
			}
		}
	}
}

// TestOversizeUpdateRejectedWhole: an update whose requests exceed the
// frame cap fails with ErrFrameTooLarge before any server has received a
// byte of it and leaves the owner as it was, so shipping the same rows as
// two smaller updates succeeds and answers as the oracle does.
func TestOversizeUpdateRejectedWhole(t *testing.T) {
	const b = 64
	ctx := context.Background()
	sys := shapeSystem(t, false, 1, b, 0)
	orc := loadPlanted(t, sys, plantedCells(sys, 5), 90)
	calls := interceptAll(sys)
	var cells, vals []uint64
	for i := uint64(0); i < 40; i++ {
		cells, vals = append(cells, (i*37+3)%b), append(vals, 1+i)
	}
	update := func(lo, hi int) error {
		_, err := sys.Owner(0).UpdateCells(ctx, cells[lo:hi], map[string][]uint64{"v": vals[lo:hi]}, nil, nil)
		return err
	}
	before := sys.Owner(0).Engine().Data()
	// Every server's request carries, in both position spaces, 40
	// positions and 40 shares per column, 8 bytes apiece for the Shamir
	// ones: framed, S2's — the smallest — is about 1.7 kB, and a 20-row
	// request to S0 about 1.1 kB.
	restore := transport.SetFrameLimit(1500)
	defer restore()
	if err := update(0, 40); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversize update: err = %v, want ErrFrameTooLarge", err)
	}
	for phi := 0; phi < 3; phi++ {
		if got := calls[0][phi].n; len(got) != 0 {
			t.Errorf("server %d received %v of the refused update", phi, got)
		}
		if n := sys.ServerEngine(phi).DeltaBacklog(tableName); n != 0 {
			t.Errorf("server %d delta backlog = %d after the refused update", phi, n)
		}
	}
	if after := sys.Owner(0).Engine().Data(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused update changed the owner's loaded data")
	}
	for _, half := range [][2]int{{0, 20}, {20, 40}} {
		if err := update(half[0], half[1]); err != nil {
			t.Fatalf("rows [%d,%d) as their own update: %v", half[0], half[1], err)
		}
	}
	restore() // the queries below move whole vectors
	orc.sets[0] = append(slices.Clone(orc.sets[0]), cells...)
	orc.vals[0] = append(slices.Clone(orc.vals[0]), vals...)
	orc.rebuild()
	directAnswers(t, sys, orc)
}
