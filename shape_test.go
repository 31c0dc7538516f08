package prism

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

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
