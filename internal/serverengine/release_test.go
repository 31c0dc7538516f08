package serverengine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"prism/internal/baseline"
	"prism/internal/field"
	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/sharestore"
)

// releaseDeploy is three engines serving one table of every column kind,
// with the plaintext the owners hold, so replies can be reconstructed
// and checked against the baseline oracle from this package.
type releaseDeploy struct {
	sys     *params.System
	engines []*Engine
	chi     [][]uint16 // per owner, per cell
	sums    [][]uint64
	cnts    [][]uint64
}

const (
	releaseOwners = 3
	releaseCells  = 96 // chunks of 16; windows of 40 straddle them, the 16-cell tail window is one whole chunk
	releaseChunk  = 16
)

var releaseSpec = protocol.TableSpec{Name: "t", B: releaseCells, AggCols: []string{"v"}, HasVerify: true, HasCount: true}

// newReleaseDeploy outsources the table with release poisoning on. The
// owners' PF_db permutations are taken as the identity: stored order is
// natural order on the χ and the χ̄ side alike.
func newReleaseDeploy(t *testing.T, opts func(st *sharestore.Store) Options) *releaseDeploy {
	t.Helper()
	sys, err := params.Generate(params.Config{
		NumOwners: releaseOwners, DomainSize: releaseCells, MaxAgg: 1000, Seed: prg.SeedFromString("release"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &releaseDeploy{sys: sys}
	for phi := 0; phi < 3; phi++ {
		v, err := sys.ForServer(phi)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Threads: 2}
		if opts != nil {
			st, err := sharestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st.SetChunkCells(releaseChunk)
			o = opts(st)
		}
		e := New(v, o)
		e.poisonReleased = true
		d.engines = append(d.engines, e)
	}
	g := prg.New(prg.SeedFromString("release-data"))
	for owner := 0; owner < releaseOwners; owner++ {
		chi, sums, cnts := make([]uint16, releaseCells), make([]uint64, releaseCells), make([]uint64, releaseCells)
		for i := range chi {
			if i%8 == 0 || g.Uint64n(2) == 1 { // every eighth cell is common
				chi[i], sums[i], cnts[i] = 1, 1+g.Uint64n(100), 1+g.Uint64n(3)
			}
		}
		d.chi, d.sums, d.cnts = append(d.chi, chi), append(d.sums, sums), append(d.cnts, cnts)
		chiS := share.AdditiveSplitVector(g, chi, sys.Delta, 2)
		barS := share.AdditiveSplitVector(g, complement(chi), sys.Delta, 2)
		sumS, cntS := share.ShamirSplitVector(g, sums, 1, 3), share.ShamirSplitVector(g, cnts, 1, 3)
		for phi, e := range d.engines {
			req := protocol.StoreRequest{
				Owner: owner, Spec: releaseSpec,
				SumCols: map[string][]uint64{"v": sumS[phi]}, VSumCols: map[string][]uint64{"v": sumS[phi]},
				CountCol: cntS[phi], VCountCol: cntS[phi],
			}
			if phi < 2 {
				req.ChiAdd, req.ChiBarAdd = chiS[phi], barS[phi]
			}
			if _, err := e.Handle(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// update rewrites owner 0's tuples at pos as one StoreDelta per server:
// the cells leave the owner's set when they were in it and join it
// otherwise. With compaction off the entries stay in the overlay.
func (d *releaseDeploy) update(t *testing.T, pos []uint64) {
	t.Helper()
	g := prg.New(prg.SeedFromString("release-update"))
	n := len(pos)
	chi, sums, cnts := make([]uint16, n), make([]uint64, n), make([]uint64, n)
	for i, p := range pos {
		if d.chi[0][p] == 0 {
			chi[i], sums[i], cnts[i] = 1, 1+g.Uint64n(100), 1+g.Uint64n(3)
		}
		d.chi[0][p], d.sums[0][p], d.cnts[0][p] = chi[i], sums[i], cnts[i]
	}
	chiS := share.AdditiveSplitVector(g, chi, d.sys.Delta, 2)
	barS := share.AdditiveSplitVector(g, complement(chi), d.sys.Delta, 2)
	sumS, cntS := share.ShamirSplitVector(g, sums, 1, 3), share.ShamirSplitVector(g, cnts, 1, 3)
	for phi, e := range d.engines {
		req := protocol.StoreDeltaRequest{
			Owner: 0, Table: "t", Pos: pos, VPos: pos,
			Sums: map[string][]uint64{"v": sumS[phi]}, VSums: map[string][]uint64{"v": sumS[phi]},
			Cnt: cntS[phi], VCnt: cntS[phi],
		}
		if phi < 2 {
			req.Chi, req.ChiBar = chiS[phi], barS[phi]
		}
		if _, err := e.Handle(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if e.DeltaBacklog("t") == 0 {
			t.Fatalf("server %d: the update is not pending in the overlay", phi)
		}
	}
}

// oracle is the plaintext answer to every kind, from internal/baseline.
func (d *releaseDeploy) oracle() (inter, union []uint64, sums, cnts map[uint64]uint64) {
	sets := make([][]uint64, releaseOwners)
	sumOf, cntOf := make([]map[uint64]uint64, releaseOwners), make([]map[uint64]uint64, releaseOwners)
	for j := range sets {
		sumOf[j], cntOf[j] = map[uint64]uint64{}, map[uint64]uint64{}
		for i, c := range d.chi[j] {
			if c == 1 {
				sets[j] = append(sets[j], uint64(i))
				sumOf[j][uint64(i)], cntOf[j][uint64(i)] = d.sums[j][i], d.cnts[j][i]
			}
		}
	}
	inter, union = baseline.PlaintextIntersection(sets), baseline.PlaintextUnion(sets)
	slices.Sort(inter)
	slices.Sort(union)
	return inter, union, baseline.PlaintextSum(sets, sumOf), baseline.PlaintextSum(sets, cntOf)
}

// releaseWindows are the reply windows every kind is asked in: the whole
// table as one window, and three windows of which the first two straddle
// chunk boundaries and the last is exactly one chunk.
var releaseWindows = [][]protocol.Range{
	{{Offset: 0, Count: releaseCells}},
	{{Offset: 0, Count: 40}, {Offset: 40, Count: 40}, {Offset: 80, Count: 16}},
}

// ask sends mk(phi, rg) for every window to servers [0, n) and joins the
// windows of each reply vector vecs picks out: out[phi][v] is server
// phi's v-th vector over the whole table.
func ask[E any](d *releaseDeploy, n int, windows []protocol.Range, mk func(phi int, rg protocol.Range) any, vecs func(reply any) [][]E) ([][][]E, error) {
	out := make([][][]E, n)
	for phi := range out {
		for _, rg := range windows {
			r, err := d.engines[phi].Handle(context.Background(), mk(phi, rg))
			if err != nil {
				return nil, fmt.Errorf("server %d window %v: %w", phi, rg, err)
			}
			vs := vecs(r)
			if out[phi] == nil {
				out[phi] = make([][]E, len(vs))
			}
			for v := range vs {
				out[phi][v] = append(out[phi][v], vs[v]...)
			}
		}
	}
	return out, nil
}

// ones returns the cells where the two servers' PSI-side vectors
// multiply to 1 mod η: every owner's share sum is the owner count there.
func (d *releaseDeploy) ones(a, b []uint32) []uint64 {
	var out []uint64
	for i := range a {
		if uint64(a[i])*uint64(b[i])%d.sys.Eta == 1 {
			out = append(out, uint64(i))
		}
	}
	return out
}

// checkAll asks every single-session kind in the given windows and
// compares the reconstructed answers with the oracle.
func (d *releaseDeploy) checkAll(qid string, windows []protocol.Range) error {
	inter, union, sums, cnts := d.oracle()

	// PSI, verified: χ side in Out, χ̄ side in Vout, stored order.
	psi, err := ask(d, 2, windows, func(_ int, rg protocol.Range) any {
		return protocol.PSIRequest{Table: "t", Verify: true, Shard: rg}
	}, func(r any) [][]uint32 { return [][]uint32{r.(protocol.PSIReply).Out, r.(protocol.PSIReply).Vout} })
	if err != nil {
		return err
	}
	if got := d.ones(psi[0][0], psi[1][0]); !slices.Equal(got, inter) {
		return fmt.Errorf("psi = %v, want %v", got, inter)
	}
	for i := range psi[0][0] { // r1·r2 = 1 at every cell (Equation 10)
		if r := uint64(psi[0][0][i]) * uint64(psi[1][0][i]) % d.sys.Eta * (uint64(psi[0][1][i]) * uint64(psi[1][1][i]) % d.sys.Eta) % d.sys.Eta; r != 1 {
			return fmt.Errorf("psi proof at cell %d: r1·r2 = %d", i, r)
		}
	}

	// PSI over a cell frontier: a gather in stored order.
	frontier := []uint32{95, 0, 17, 16, 8, 40}
	front, err := ask(d, 2, windows[:1], func(int, protocol.Range) any {
		return protocol.PSIRequest{Table: "t", Cells: frontier}
	}, func(r any) [][]uint32 { return [][]uint32{r.(protocol.PSIReply).Out} })
	if err != nil {
		return err
	}
	for i, c := range frontier {
		_, in := slices.BinarySearch(inter, uint64(c))
		if (uint64(front[0][0][i])*uint64(front[1][0][i])%d.sys.Eta == 1) != in {
			return fmt.Errorf("psi frontier cell %d: in = %v, want %v", c, !in, in)
		}
	}

	// Count, verified: both sides server-permuted, so only the number of
	// ones is comparable.
	cnt, err := ask(d, 2, windows, func(_ int, rg protocol.Range) any {
		return protocol.CountRequest{Table: "t", Verify: true, Shard: rg}
	}, func(r any) [][]uint32 { return [][]uint32{r.(protocol.CountReply).Out, r.(protocol.CountReply).Vout} })
	if err != nil {
		return err
	}
	for side, name := range []string{"count", "count proof"} {
		if got := len(d.ones(cnt[0][side], cnt[1][side])); got != len(inter) {
			return fmt.Errorf("%s = %d, want %d", name, got, len(inter))
		}
	}

	// PSU in stored order, and permuted (the PSU count).
	for _, permute := range []bool{false, true} {
		psu, err := ask(d, 2, windows, func(_ int, rg protocol.Range) any {
			return protocol.PSURequest{Table: "t", QueryID: fmt.Sprintf("%s/%v", qid, permute), Shard: rg, Permute: permute}
		}, func(r any) [][]uint16 { return [][]uint16{r.(protocol.PSUReply).Out} })
		if err != nil {
			return err
		}
		var got []uint64
		for i := range psu[0][0] {
			if (uint64(psu[0][0][i])+uint64(psu[1][0][i]))%d.sys.Delta != 0 {
				got = append(got, uint64(i))
			}
		}
		if permute && len(got) != len(union) || !permute && !slices.Equal(got, union) {
			return fmt.Errorf("psu (permuted %v) = %v, want %v", permute, got, union)
		}
	}

	// Sum and count over the intersection, verified.
	z := make([]uint64, releaseCells)
	for _, c := range inter {
		z[c] = 1
	}
	zS := share.ShamirSplitVector(prg.New(prg.SeedFromString(qid)), z, 1, 3)
	agg, err := ask(d, 3, windows, func(phi int, rg protocol.Range) any {
		zw := zS[phi][rg.Offset:rg.End()]
		return protocol.AggRequest{Table: "t", Cols: []string{"v"}, WithCount: true, Z: zw, VZ: zw, Shard: rg}
	}, func(r any) [][]uint64 {
		a := r.(protocol.AggReply)
		return [][]uint64{a.Sums["v"], a.VSums["v"], a.Counts, a.VCounts}
	})
	if err != nil {
		return err
	}
	for v, want := range []map[uint64]uint64{sums, sums, cnts, cnts} {
		for i := uint64(0); i < releaseCells; i++ {
			got := share.ShamirReconstruct([]field.Elem{agg[0][v][i], agg[1][v][i], agg[2][v][i]})
			if got != want[i] {
				return fmt.Errorf("agg vector %d cell %d = %d, want %d", v, i, got, want[i])
			}
		}
	}
	return nil
}

// shared snapshots every slice queries share on server e: the in-memory
// columns, the cached chunks and the overlay's entries.
func shared(e *Engine) map[string]any {
	out := map[string]any{}
	e.mu.RLock()
	defer e.mu.RUnlock()
	tb := e.tables["t"]
	for j, oc := range tb.owners {
		for name, v := range oc.u16 {
			out[fmt.Sprintf("ram/%d/%s", j, name)] = slices.Clone(v)
		}
		for name, v := range oc.u64 {
			out[fmt.Sprintf("ram/%d/%s", j, name)] = slices.Clone(v)
		}
	}
	if tb.cache != nil {
		tb.cache.mu.Lock()
		for id, ent := range tb.cache.entries {
			switch v := ent.val.(type) {
			case []uint16:
				out[fmt.Sprintf("cache/%s/%d", id.col, id.k)] = slices.Clone(v)
			case []uint64:
				out[fmt.Sprintf("cache/%s/%d", id.col, id.k)] = slices.Clone(v)
			}
		}
		tb.cache.mu.Unlock()
	}
	if tb.delta != nil {
		snap, _ := tb.delta.snapshot()
		out["overlay"] = snap
	}
	return out
}

// TestFetchReleaseNeverAliasesSharedColumns: the slices a kernel's fetch
// borrows from the cell pool are handed back when the kernel finishes,
// and with poisonReleased every released slice is overwritten with 0xFF…
// first. So a release of anything queries share — an in-memory column, a
// cached chunk, an overlay clone still in use — or a release before the
// kernel is done shows up as a wrong answer or a changed snapshot. Two
// clients run every single-session kind twice each, interleaved, in both
// window shapes, on every backend.
func TestFetchReleaseNeverAliasesSharedColumns(t *testing.T) {
	disk := func(cacheBytes int64) func(*sharestore.Store) Options {
		return func(st *sharestore.Store) Options { return Options{Threads: 2, Store: st, CacheBytes: cacheBytes} }
	}
	for _, mode := range []struct {
		name    string
		opts    func(*sharestore.Store) Options
		overlay bool
	}{
		{"ram", nil, false},
		{"disk-warm-cache", disk(1 << 20), false},
		{"disk-nocache", disk(0), false},
		{"disk-nocache-overlay", disk(0), true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := newReleaseDeploy(t, mode.opts)
			if mode.overlay {
				d.update(t, []uint64{0, 5, 15, 16, 47, 48, 80, 95}) // first and last cell, chunk edges, common and private cells
			}
			for _, windows := range releaseWindows { // warm-up: fills the cache, checks the answers once
				if err := d.checkAll("warm", windows); err != nil {
					t.Fatal(err)
				}
			}
			before := make([]map[string]any, 3)
			for phi, e := range d.engines {
				before[phi] = shared(e)
			}
			if _, cached := before[0]["cache/o0.chi/"+fmt.Sprint(fullColumnChunk)]; cached != (mode.name == "disk-warm-cache") {
				t.Fatalf("whole-column cache entry present = %v", cached)
			}
			var wg sync.WaitGroup
			for client := 0; client < 2; client++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 2; round++ {
						for w, windows := range releaseWindows {
							if err := d.checkAll(fmt.Sprintf("c%d/r%d/w%d", client, round, w), windows); err != nil {
								t.Errorf("client %d round %d: %v", client, round, err)
							}
						}
					}
				}()
			}
			wg.Wait()
			for phi, e := range d.engines {
				after := shared(e)
				keys := make([]string, 0, len(after))
				for k := range after {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					if !reflect.DeepEqual(before[phi][k], after[k]) {
						t.Errorf("server %d: shared slice %s changed under the queries", phi, k)
					}
				}
				if len(after) != len(before[phi]) {
					t.Errorf("server %d: %d shared slices before, %d after", phi, len(before[phi]), len(after))
				}
			}
		})
	}
}
