package serverengine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"prism/internal/field"
	"prism/internal/params"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// The summed-fetch fixture: one additive-share server S0 holding a
// verified table with a count column over 70 cells in 16-cell chunks
// (four whole chunks and a 6-cell tail), and what every owner holds.
const summedCells, summedChunk = 70, 16

var summedSpec = protocol.TableSpec{Name: "t", B: summedCells, AggCols: []string{"v"}, HasVerify: true, HasCount: true}

// summedLayout is S0's layout under summedSpec.
var summedLayout = []string{"chi", "chibar", "sum.v", "vsum.v", "cnt", "vcnt"}

// summedTier is where a server keeps its columns and what the epoch's
// cache holds when the checked pass starts.
type summedTier struct {
	name string
	disk bool
	fill string // "" nothing, or what fillCache puts there first
}

var summedTiers = []summedTier{
	{name: "ram"},
	{name: "disk-nocache", disk: true},
	// The owner sums alone: the state a pending update finds after the
	// epoch's first queries, its merge reading every chunk cold.
	{name: "disk-cache-cold", disk: true, fill: "sums"},
	{name: "disk-cache-warm", disk: true, fill: "all"},
	// A warm cache whose epoch has ended under the checked pass, as for a
	// query still holding the old snapshot: every entry loads again.
	{name: "disk-cache-evict", disk: true, fill: "discarded"},
}

// summedShapes are the fetch shapes: contiguous, exactly one chunk, the
// whole table and a window of the PF_s-permuted reply (gathered through
// pf⁻¹).
var summedShapes = []struct {
	name   string
	rg     protocol.Range
	gather string // "" or "permuted"
}{
	{"window", protocol.Range{Offset: 5, Count: 30}, ""},
	{"one-chunk", protocol.Range{Offset: 16, Count: summedChunk}, ""},
	{"whole", protocol.Range{Offset: 0, Count: summedCells}, ""},
	{"permuted", protocol.Range{Offset: 20, Count: 25}, "permuted"},
}

type summedFixture struct {
	tier summedTier
	m    int
	view *params.ServerView
	dir  string
	e    *Engine
	rng  *prg.PRG
	// cols[col][j][p] is the value owner j holds at stored cell p: its
	// base with its pending updates applied.
	cols map[string][][]uint64
}

func newSummedFixture(t *testing.T, m int, tier summedTier) *summedFixture {
	t.Helper()
	sys, err := params.Generate(params.Config{
		NumOwners: max(m, 2), DomainSize: summedCells, MaxAgg: 1000, Seed: prg.SeedFromString("summed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := sys.ForServer(0)
	if err != nil {
		t.Fatal(err)
	}
	view.M = m // params wants two owners; the server only counts them
	f := &summedFixture{tier: tier, m: m, view: view, rng: prg.New(prg.SeedFromString(fmt.Sprintf("summed/%d/%s", m, tier.name))), cols: map[string][][]uint64{}}
	for _, col := range summedLayout {
		f.cols[col] = make([][]uint64, m)
	}
	if tier.disk {
		f.dir = t.TempDir()
	}
	f.e = f.engine(t)
	for j := 0; j < m; j++ {
		f.outsource(t, j)
	}
	return f
}

// engine opens a server over the fixture's store (a restart when the
// store already holds the table). Released slices are poisoned.
func (f *summedFixture) engine(t *testing.T) *Engine {
	t.Helper()
	o := Options{Threads: 2}
	if f.tier.disk {
		st, err := sharestore.Open(f.dir)
		if err != nil {
			t.Fatal(err)
		}
		st.SetChunkCells(summedChunk)
		o.Store = st
	}
	e := New(f.view, o)
	e.poisonReleased = true
	return e
}

// ring is col's modulus: δ for χ shares, P for field shares.
func (f *summedFixture) ring(col string) uint64 {
	if col == "chi" || col == "chibar" {
		return f.view.Delta
	}
	return field.P
}

// value draws a cell value: 0 or the top of the ring at the cells the
// pick selects, so each column has cells where every owner holds 0 and
// cells where every owner holds δ−1 (or P−1); random elsewhere.
func (f *summedFixture) value(col string, pick int) uint64 {
	switch pick % 5 {
	case 0:
		return 0
	case 1:
		return f.ring(col) - 1
	}
	return f.rng.Uint64n(f.ring(col))
}

func narrow(v []uint64) []uint16 {
	out := make([]uint16, len(v))
	for i, x := range v {
		out[i] = uint16(x)
	}
	return out
}

// outsource stores fresh columns for owner j, replacing its base and
// dropping its pending updates.
func (f *summedFixture) outsource(t *testing.T, j int) {
	t.Helper()
	for _, col := range summedLayout {
		v := make([]uint64, summedCells)
		for i := range v {
			v[i] = f.value(col, i)
		}
		f.cols[col][j] = v
	}
	// The in-memory server keeps the request's columns, so it gets copies:
	// update changes the fixture's columns in place.
	c := func(col string) []uint64 { return slices.Clone(f.cols[col][j]) }
	if _, err := f.e.Handle(context.Background(), protocol.StoreRequest{
		Owner: j, Spec: summedSpec, ChiAdd: narrow(c("chi")), ChiBarAdd: narrow(c("chibar")),
		SumCols: map[string][]uint64{"v": c("sum.v")}, VSumCols: map[string][]uint64{"v": c("vsum.v")},
		CountCol: c("cnt"), VCountCol: c("vcnt"),
	}); err != nil {
		t.Fatal(err)
	}
}

// update sends every owner one StoreDelta that stays pending: the first
// and last cell and both sides of a chunk edge for everyone — so several
// owners' entries land on one cell — and for owner 0 every third cell
// too, more entries than a one-chunk or a permuted window has cells, so
// those fetches probe per cell while the others walk the entries.
func (f *summedFixture) update(t *testing.T) {
	t.Helper()
	for j := 0; j < f.m; j++ {
		pos := []uint64{0, 15, 16, summedCells - 1, uint64(30 + j)}
		if j == 0 {
			for p := uint64(2); p < summedCells-1; p += 3 {
				pos = append(pos, p)
			}
		}
		slices.Sort(pos)
		pos = slices.Compact(pos)
		vals := map[string][]uint64{}
		for _, col := range summedLayout {
			for k, p := range pos {
				v := f.value(col, k)
				f.cols[col][j][p] = v
				vals[col] = append(vals[col], v)
			}
		}
		if _, err := f.e.Handle(context.Background(), protocol.StoreDeltaRequest{
			Owner: j, Table: "t", Pos: pos, VPos: pos,
			Chi: narrow(vals["chi"]), ChiBar: narrow(vals["chibar"]),
			Sums: map[string][]uint64{"v": vals["sum.v"]}, VSums: map[string][]uint64{"v": vals["vsum.v"]},
			Cnt: vals["cnt"], VCnt: vals["vcnt"],
		}); err != nil {
			t.Fatal(err)
		}
	}
	if f.e.DeltaBacklog("t") == 0 {
		t.Fatal("the update is not pending")
	}
}

// sumAt is the scalar reference: Σ_j cols[col][j][p] mod the ring.
func (f *summedFixture) sumAt(col string, p uint64) uint64 {
	var s uint64
	for j := range f.cols[col] {
		if r := f.ring(col); r == field.P {
			s = field.Add(s, f.cols[col][j][p])
		} else {
			s = (s + f.cols[col][j][p]) % r
		}
	}
	return s
}

// shape resolves a fetch shape for col: the window and, for a gather, the
// stored cells (through PF_s1 for χ-order columns, PF_s2 for χ̄ order).
func (f *summedFixture) shape(col string, rg protocol.Range, gather string) ([]uint32, perm.Perm) {
	switch gather {
	case "permuted":
		pf := f.view.S1
		if col == "chibar" || col[0] == 'v' {
			pf = f.view.S2
		}
		return pf.Inverse()[rg.Offset:rg.End()], pf
	}
	return nil, nil
}

// fetch is ownerSum over snapshot tv, widened to uint64 and released.
func (f *summedFixture) fetch(tv *tableView, col string, rg protocol.Range, idx []uint32, pf perm.Perm, stats *protocol.Stats) ([]uint64, error) {
	if f.ring(col) == field.P {
		v, borrowed, err := ownerSum[uint64](f.e, tv, col, rg, idx, pf, stats)
		if err != nil {
			return nil, err
		}
		out := slices.Clone(v)
		if borrowed {
			release(f.e, v)
		}
		return out, nil
	}
	v, borrowed, err := ownerSum[uint16](f.e, tv, col, rg, idx, pf, stats)
	if err != nil {
		return nil, err
	}
	out := widenU16(v)
	if borrowed {
		release(f.e, v)
	}
	return out, nil
}

// checkFetches holds every column's owner sum in every fetch shape to
// the per-cell reference. With warm set, the fetch must have hit the
// cache and, but for a gather's own time, read nothing from the store.
func (f *summedFixture) checkFetches(warm bool) error {
	tv, err := f.e.lookup("t")
	if err != nil {
		return err
	}
	for _, sh := range summedShapes {
		for _, col := range summedLayout {
			idx, pf := f.shape(col, sh.rg, sh.gather)
			var stats protocol.Stats
			got, err := f.fetch(tv, col, sh.rg, idx, pf, &stats)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sh.name, col, err)
			}
			cells := idx
			if cells == nil {
				cells = span(sh.rg)
			}
			if len(got) != len(cells) {
				return fmt.Errorf("%s/%s: %d cells, want %d", sh.name, col, len(got), len(cells))
			}
			for i, p := range cells {
				if want := f.sumAt(col, uint64(p)); got[i] != want {
					return fmt.Errorf("%s/%s: fetched cell %d (stored %d) = %d, want %d", sh.name, col, i, p, got[i], want)
				}
			}
			if warm && (stats.FetchNS != 0 && sh.gather == "" || stats.CacheHits == 0) {
				return fmt.Errorf("%s/%s: warm fetch read the store (fetchNS=%d hits=%d)", sh.name, col, stats.FetchNS, stats.CacheHits)
			}
		}
	}
	return nil
}

// span lists the stored cells of a window.
func span(rg protocol.Range) []uint32 {
	var out []uint32
	for p := rg.Offset; p < rg.End(); p++ {
		out = append(out, uint32(p))
	}
	return out
}

// truth16 is what the owners hold of a χ-order column, narrowed, over
// the stored cells at (or, with at nil, all of them).
func (f *summedFixture) truth16(col string, at []uint32) [][]uint16 {
	out := make([][]uint16, f.m)
	for j := range out {
		if at == nil {
			out[j] = narrow(f.cols[col][j])
			continue
		}
		for _, p := range at {
			out[j] = append(out[j], uint16(f.cols[col][j][p]))
		}
	}
	return out
}

// summedWindows are the reply windows: the whole table, and four windows
// of which one is exactly a chunk, one straddles two and the last is the
// tail.
var summedWindows = [][]protocol.Range{
	{{Offset: 0, Count: summedCells}},
	{{Offset: 0, Count: 10}, {Offset: 10, Count: 22}, {Offset: 32, Count: summedChunk}, {Offset: 48, Count: 22}},
}

// checkReplies holds every reply built on the owner sums — PSI with its
// proof, count with its proof, PSU stored and permuted,
// and the verified sum and count aggregation — to the scalar references.
func (f *summedFixture) checkReplies() error {
	ctx := context.Background()
	e, v := f.e, f.view
	psiChi := refPSI(f.truth16("chi", nil), summedCells, e.powTab, v.Delta, uint64(v.MShare))
	psiBar := refPSI(f.truth16("chibar", nil), summedCells, e.powTab, v.Delta, 0)
	inv1 := v.S1.Inverse()
	for _, windows := range summedWindows {
		for _, rg := range windows {
			rep, err := e.Handle(ctx, protocol.PSIRequest{Table: "t", Verify: true, Shard: rg})
			if err != nil {
				return err
			}
			psi := rep.(protocol.PSIReply)
			if !slices.Equal(psi.Out, psiChi[rg.Offset:rg.End()]) || !slices.Equal(psi.Vout, psiBar[rg.Offset:rg.End()]) {
				return fmt.Errorf("psi window %v differs from the reference", rg)
			}
			rep, err = e.Handle(ctx, protocol.CountRequest{Table: "t", Verify: true, Shard: rg})
			if err != nil {
				return err
			}
			cnt := rep.(protocol.CountReply)
			if !slices.Equal(cnt.Out, perm.Apply(v.S1, psiChi, nil)[rg.Offset:rg.End()]) ||
				!slices.Equal(cnt.Vout, perm.Apply(v.S2, psiBar, nil)[rg.Offset:rg.End()]) {
				return fmt.Errorf("count window %v differs from the reference", rg)
			}
			for _, permute := range []bool{false, true} {
				qid := fmt.Sprintf("psu/%v", permute)
				rep, err = e.Handle(ctx, protocol.PSURequest{Table: "t", QueryID: qid, Shard: rg, Permute: permute})
				if err != nil {
					return err
				}
				cells := span(rg) // masks follow the reply positions
				if permute {
					cells = inv1[rg.Offset:rg.End()]
				}
				want := refPSUWindow(f.truth16("chi", cells), rg, v.PSUSeed, qid, v.Delta)
				if got := rep.(protocol.PSUReply).Out; !slices.Equal(got, want) {
					return fmt.Errorf("psu (permuted %v) window %v = %v, want %v", permute, rg, got, want)
				}
			}
			z := make([]uint64, rg.Count)
			for i := range z {
				z[i] = []uint64{0, field.P - 1, uint64(i) * 0x9E3779B97F4A7C15 % field.P}[i%3]
			}
			rep, err = e.Handle(ctx, protocol.AggRequest{Table: "t", Cols: []string{"v"}, WithCount: true, Z: z, VZ: z, Shard: rg})
			if err != nil {
				return err
			}
			agg := rep.(protocol.AggReply)
			for col, got := range map[string][]uint64{"sum.v": agg.Sums["v"], "vsum.v": agg.VSums["v"], "cnt": agg.Counts, "vcnt": agg.VCounts} {
				window := make([][]uint64, f.m)
				for j := range window {
					window[j] = f.cols[col][j][rg.Offset:rg.End()]
				}
				if want := refSum(window, z); !slices.Equal(got, want) {
					return fmt.Errorf("agg %s window %v differs from the reference", col, rg)
				}
			}
		}
	}
	return nil
}

// fillCache brings the epoch's cache to the state the tier names: the
// owner sums of every column, or a whole checked pass (sums and the
// chunks its merges read), kept or then discarded.
func (f *summedFixture) fillCache(t *testing.T) {
	t.Helper()
	switch f.tier.fill {
	case "sums":
		tv, err := f.e.lookup("t")
		if err != nil {
			t.Fatal(err)
		}
		var stats protocol.Stats
		for _, col := range summedLayout {
			if col == "chi" || col == "chibar" {
				_, err = epochSum[uint16](f.e, tv, col, &stats)
			} else {
				_, err = epochSum[uint64](f.e, tv, col, &stats)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	case "all", "discarded":
		if err := f.checkFetches(false); err != nil {
			t.Fatal(err)
		}
	}
	if f.tier.fill == "discarded" {
		f.e.mu.Lock()
		f.e.tables["t"].cache.discard()
		f.e.mu.Unlock()
	}
}

// check runs both checks, after filling the tier's cache.
func (f *summedFixture) check(t *testing.T) {
	t.Helper()
	f.fillCache(t)
	if err := f.checkFetches(f.tier.fill == "all"); err != nil {
		t.Fatal(err)
	}
	if err := f.checkReplies(); err != nil {
		t.Fatal(err)
	}
}

// TestSummedFetchMatchesReference holds the fetch layer's one contract —
// ownerSum is Σ_j col_j over the fetch, δ-reduced or canonical in F_p,
// with the pending overlay merged in — and every reply the kernels build
// on it to a scalar per-cell reference: on every tier that keeps or
// builds the sums, with the overlay absent, pending and compacted, in
// every fetch shape, for 1, 2 and 5 owners. Then the epoch rules: after a
// re-outsource by one owner, a Compact (run under concurrent readers) and
// a Recover, the next query sums the new base, while a query holding the
// old snapshot keeps its old sum.
func TestSummedFetchMatchesReference(t *testing.T) {
	for _, m := range []int{1, 2, 5} {
		for _, tier := range summedTiers {
			for _, phase := range []string{"none", "pending", "compacted"} {
				t.Run(fmt.Sprintf("m%d/%s/%s", m, tier.name, phase), func(t *testing.T) {
					t.Parallel()
					f := newSummedFixture(t, m, tier)
					if phase != "none" {
						f.update(t)
					}
					if phase == "compacted" {
						if _, err := f.e.Compact("t"); err != nil {
							t.Fatal(err)
						}
					}
					f.check(t)
				})
			}
		}
	}
	for _, tier := range summedTiers {
		t.Run("epochs/"+tier.name, func(t *testing.T) {
			t.Parallel()
			newSummedFixture(t, 3, tier).epochs(t)
		})
	}
}

// TestPermutedRepliesAreWindowInvariant: a reply permuted by PF_s is one
// vector however the owner cuts it into windows. On one server, the
// count reply (Out and Vout) and the permuted PSU reply at the
// whole-table window must equal the concatenation of the same round's
// replies over three smaller windows — in RAM, and on disk with the
// epoch's cache cold and warm.
func TestPermutedRepliesAreWindowInvariant(t *testing.T) {
	whole := []protocol.Range{{Offset: 0, Count: summedCells}}
	split := []protocol.Range{{Offset: 0, Count: 23}, {Offset: 23, Count: 24}, {Offset: 47, Count: 23}}
	for _, tier := range []summedTier{summedTiers[0], summedTiers[1], summedTiers[3]} {
		t.Run(tier.name, func(t *testing.T) {
			f := newSummedFixture(t, 3, tier)
			ctx := context.Background()
			replies := func(windows []protocol.Range) (cnt protocol.CountReply, psu []uint16) {
				t.Helper()
				for _, rg := range windows {
					rep, err := f.e.Handle(ctx, protocol.CountRequest{Table: "t", QueryID: "count", Verify: true, Shard: rg})
					if err != nil {
						t.Fatal(err)
					}
					c := rep.(protocol.CountReply)
					cnt.Out, cnt.Vout = append(cnt.Out, c.Out...), append(cnt.Vout, c.Vout...)
					rep, err = f.e.Handle(ctx, protocol.PSURequest{Table: "t", QueryID: "psucount", Shard: rg, Permute: true})
					if err != nil {
						t.Fatal(err)
					}
					psu = append(psu, rep.(protocol.PSUReply).Out...)
				}
				return cnt, psu
			}
			if tier.fill != "" {
				replies(whole)
				replies(split)
			}
			wholeCnt, wholePSU := replies(whole)
			splitCnt, splitPSU := replies(split)
			if !slices.Equal(wholeCnt.Out, splitCnt.Out) || !slices.Equal(wholeCnt.Vout, splitCnt.Vout) {
				t.Errorf("count: whole-table reply %v / %v, three windows %v / %v", wholeCnt.Out, wholeCnt.Vout, splitCnt.Out, splitCnt.Vout)
			}
			if !slices.Equal(wholePSU, splitPSU) {
				t.Errorf("psucount: whole-table reply %v, three windows %v", wholePSU, splitPSU)
			}
		})
	}
}

// held is a query holding a snapshot: the owner sum it fetched (kept, not
// released) and what that sum must stay.
type held struct {
	tv         *tableView
	sum, want  []uint16
	sumF, wanF []uint64
}

func (f *summedFixture) hold(t *testing.T) held {
	t.Helper()
	tv, err := f.e.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	whole := protocol.Range{Count: summedCells}
	h := held{tv: tv}
	var stats protocol.Stats
	if h.sum, _, err = ownerSum[uint16](f.e, tv, "chi", whole, nil, nil, &stats); err != nil {
		t.Fatal(err)
	}
	if h.sumF, _, err = ownerSum[uint64](f.e, tv, "sum.v", whole, nil, nil, &stats); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < summedCells; p++ {
		h.want, h.wanF = append(h.want, uint16(f.sumAt("chi", p))), append(h.wanF, f.sumAt("sum.v", p))
	}
	return h
}

// kept asserts the held sums are what they were; in memory, where a
// snapshot's columns and cache never change, a fresh fetch through the
// old snapshot must return them too.
func (f *summedFixture) kept(t *testing.T, h held, e *Engine) {
	t.Helper()
	if !slices.Equal(h.sum, h.want) || !slices.Equal(h.sumF, h.wanF) {
		t.Fatal("a held owner sum changed under the new epoch")
	}
	if f.tier.disk {
		return
	}
	var stats protocol.Stats
	v, _, err := ownerSum[uint16](e, h.tv, "chi", protocol.Range{Count: summedCells}, nil, nil, &stats)
	if err != nil || !slices.Equal(v, h.want) {
		t.Fatalf("the old snapshot now sums %v (%v), want %v", v, err, h.want)
	}
}

// fresh asserts the next query after an epoch change sums the new base;
// when no reader raced it there, the epoch's cache is empty before that
// first fetch and the fetch reads the store.
func (f *summedFixture) fresh(t *testing.T, cold bool) {
	t.Helper()
	tv, err := f.e.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if cold && tv.cache != nil && tv.cache.Len() != 0 {
		t.Fatalf("the new epoch's cache holds %d entries before its first query", tv.cache.Len())
	}
	var stats protocol.Stats
	got, err := f.fetch(tv, "chi", protocol.Range{Count: summedCells}, nil, nil, &stats)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range got {
		if want := f.sumAt("chi", uint64(p)); v != want {
			t.Fatalf("after the epoch change cell %d sums to %d, want %d", p, v, want)
		}
	}
	if cold && stats.FetchNS <= 0 {
		t.Fatal("the first query of the new epoch read nothing from the store")
	}
	f.check(t)
}

func (f *summedFixture) epochs(t *testing.T) {
	f.check(t)

	// A re-outsource by one owner.
	h := f.hold(t)
	f.outsource(t, 1)
	f.fresh(t, true)
	f.kept(t, h, f.e)

	// A compaction, while two readers check every fetch and reply: its
	// chunk rewrites and cache swap must never show through.
	f.update(t)
	h = f.hold(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := f.checkFetches(false); err != nil {
					errs <- err
					return
				}
				if err := f.checkReplies(); err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	_, err := f.e.Compact("t")
	close(done)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(<-errs, <-errs); err != nil {
		t.Fatalf("a reader during compaction: %v", err)
	}
	f.fresh(t, false)
	f.kept(t, h, f.e)

	// A restart: a new server recovers the store, pending updates and all.
	if !f.tier.disk {
		return
	}
	f.update(t)
	h = f.hold(t)
	old := f.e
	f.e = f.engine(t)
	if rep, err := f.e.RecoveryReport(); err != nil || len(rep.Recovered) != 1 {
		t.Fatalf("recovery: %+v, %v", rep, err)
	}
	f.fresh(t, true)
	f.kept(t, h, old)
}
