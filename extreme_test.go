package prism

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"prism/internal/protocol"
	"prism/internal/transport"
)

// extremeRoundCalls runs one PSIMax over k planted cells on two groups at
// the benchmark's owner count and returns how many messages of the
// extreme rounds — submit, announce, fetch, claim, reduce, retire — every
// server and the announcer received, by type.
func extremeRoundCalls(t *testing.T, k int) map[string]int {
	t.Helper()
	sys := shape{owners: 10, groups: 2, b: 256}.system(t)
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
			sys := shape{owners: 3, groups: groups, b: 256}.system(t)
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
	sys := shape{owners: 3, groups: 2, b: 256}.system(t)
	planted := plantedCells(sys, 4)
	loadPlanted(t, sys, planted, 5)
	// Owner 1 drops its tuples at the third planted cell.
	keep := []uint64{planted[0], planted[1], planted[3]}
	if err := sys.Owner(1).LoadCells(keep, map[string][]uint64{"v": {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	_, err := sys.PSIMin(context.Background(), "v")
	want := fmt.Sprintf("owner 1 has no tuple at intersection cell %d", planted[2])
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one containing %q", err, want)
	}
	assertNoSessions(t, sys)
}
