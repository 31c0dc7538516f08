package prism

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/baseline"
	"prism/internal/gateway"
	"prism/internal/ownerengine"
	"prism/internal/protocol"
	"prism/internal/sharestore"
	"prism/internal/transport"
)

// The conformance matrix holds the paper's two promises in every
// deployment shape the code can be configured into, on one fixture and
// one oracle, split as AuthPDB splits them: TestConformance is
// completeness (every kind answers as the plaintext computation does) and
// TestSoundness is soundness (a server that skips, replaces or injects is
// caught, §3.2 and §5.2). Select cells with -run, e.g.
// 'TestConformance/disk-cache/many/g2/pending/gateway/median' or
// 'TestSoundness/.*/g3/pending/sum/patched'.

// shape is one deployment: where the servers keep shares, how the owners
// window a table, how many server groups split the domain, and the data
// planted in it.
type shape struct {
	storage string // "mem" (or ""), "disk-nocache" or "disk-cache" (see config)
	shard   uint64 // Config.ShardCells: 0 or 2b is one window, manyWindows many
	groups  int
	owners  int
	k       int    // planted intersection cells; b plants every cell
	b       uint64 // domain cells
}

// manyWindows divides neither domain, 64 cells or 61.
const manyWindows = 10

// shapes is the shape axis: storage × one/many windows × 1–3 groups. The
// data varies across it: 2–5 owners (median sees odd and even M),
// intersections of 0, 1, 5 and b cells (k = b makes intersection equal
// union) over 64 cells or the prime 61 (uneven group and window splits),
// each value in memory and on disk, on one group and on several. Every
// shape puts every message through the frame codec, as every System does.
var shapes = []shape{
	{"mem", 0, 1, 2, 5, 64},
	{"mem", 122, 2, 3, 0, 61},
	{"mem", 0, 3, 4, 64, 64},
	{"mem", manyWindows, 1, 5, 1, 61},
	{"mem", manyWindows, 2, 4, 5, 64},
	{"mem", manyWindows, 3, 3, 61, 61},
	{"disk-nocache", 128, 1, 3, 1, 64},
	{"disk-nocache", 0, 2, 5, 5, 61},
	{"disk-nocache", 0, 3, 2, 5, 64},
	{"disk-nocache", manyWindows, 1, 4, 0, 61},
	{"disk-nocache", manyWindows, 2, 2, 64, 64},
	{"disk-nocache", manyWindows, 3, 5, 5, 61},
	{"disk-cache", 0, 1, 4, 61, 61},
	{"disk-cache", 128, 2, 2, 1, 64},
	{"disk-cache", 122, 3, 5, 0, 61},
	{"disk-cache", manyWindows, 1, 3, 5, 64},
	{"disk-cache", manyWindows, 2, 3, 0, 61},
	{"disk-cache", manyWindows, 3, 4, 1, 64},
}

func (sh shape) name() string {
	windows := "one"
	if sh.shard == manyWindows {
		windows = "many"
	}
	return fmt.Sprintf("%s/%s/g%d", sh.storage, windows, sh.groups)
}

// config is the shape's Config: verified, one aggregation column "v",
// bucket trees outsourced with the table (so bpsi answers); on disk the
// stores write window-sized chunks (Config.ShardCells, or sharestore's
// default). The disk-cache shapes also set Config.HotChunks, as configs
// written for the retired chunk cache do: the field is read by nothing,
// so they are six more disk shapes and must answer exactly as the rest.
func (sh shape) config(t testing.TB) Config {
	t.Helper()
	dom, err := IntDomain(1, sh.b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Owners:      sh.owners,
		Domain:      dom,
		AggColumns:  []string{"v"},
		MaxAggValue: 200_000, // median totals: ≤ 3 tuples × 50 000, plus an update's 40 000
		Verify:      true,
		Buckets:     true,
		Groups:      sh.groups,
		ShardCells:  sh.shard,
		Seed:        [32]byte{27, byte(sh.owners), byte(sh.groups), byte(sh.b), byte(sh.shard)},
	}
	chunk := sh.shard
	if chunk == 0 {
		chunk = sharestore.DefaultChunkCells
	}
	switch sh.storage {
	case "disk-nocache":
		cfg.DiskDir = t.TempDir()
	case "disk-cache":
		cfg.DiskDir, cfg.HotChunks = t.TempDir(), 4*chunk*2
	}
	return cfg
}

// system builds the shape, closed when the test ends.
func (sh shape) system(t testing.TB) *System {
	t.Helper()
	sys, err := NewLocalSystem(sh.config(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// plantedCells picks k cells every owner will hold, straddling the group
// boundaries first: the last cell of group g−1 and the first of group g
// for every boundary, then the domain's two ends, then a spread of
// interior cells, then the rest. Returned ascending.
func plantedCells(sys *System, k int) []uint64 {
	eng := sys.Owner(0).Engine()
	b := eng.DomainB()
	var order []uint64
	for g := 1; g < sys.NumGroups(); g++ {
		start := eng.GroupView(g).Start
		order = append(order, start-1, start)
	}
	order = append(order, 0, b-1)
	for c := uint64(5); c < b; c += 3 {
		order = append(order, c)
	}
	for c := range b {
		order = append(order, c)
	}
	var pick []uint64
	for _, c := range order {
		if len(pick) < k && !slices.Contains(pick, c) {
			pick = append(pick, c)
		}
	}
	slices.Sort(pick)
	return pick
}

// loadPlanted gives every owner one to three random-valued tuples at each
// planted cell plus random tuples at cells no full set of owners shares,
// outsources, and returns the plaintext oracle.
func loadPlanted(t testing.TB, sys *System, planted []uint64, seed int64) *oracle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := sys.Owners()
	b := sys.Owner(0).Engine().DomainB()
	orc := &oracle{sets: make([][]uint64, m), vals: make([][]uint64, m)}
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

// oracle is the plaintext answer to every kind over the owners' tuples:
// owner j holds vals[j][i] (column "v") at cell sets[j][i].
type oracle struct {
	sets, vals   [][]uint64
	cells, union []uint64              // the intersection and the union, ascending
	local        [][]map[uint64]uint64 // [extreme kind][owner][cell] → the owner's own max / min / total
}

// rebuild recomputes the answers from the tuples.
func (orc *oracle) rebuild() {
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
	orc.union = baseline.PlaintextUnion(orc.sets)
	slices.Sort(orc.union)
}

// reload gives every owner of sys its tuples back — owner-local only, as
// after a restart over recovered servers.
func (orc *oracle) reload(t testing.TB, sys *System) {
	t.Helper()
	for j := range orc.sets {
		if err := sys.Owner(j).LoadCells(orc.sets[j], map[string][]uint64{"v": orc.vals[j]}); err != nil {
			t.Fatal(err)
		}
	}
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

// extremes is the plaintext max/min/median at every intersection cell,
// with its holders or median pair, and the query-global outcome (nil over
// an empty intersection; for max/min only its value is fixed, since equal
// extremes at two cells tie on random masks).
func (orc *oracle) extremes(kind protocol.ExtremeKind) (map[uint64]ExtremeCell, *ExtremeCell) {
	local := orc.local[kind]
	want := make(map[uint64]ExtremeCell, len(orc.cells))
	var pool []uint64
	var global *ExtremeCell
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
		switch {
		case global == nil:
			global = &ExtremeCell{Value: w.Value}
		case kind == protocol.KindMax:
			global.Value = max(global.Value, w.Value)
		case kind == protocol.KindMin:
			global.Value = min(global.Value, w.Value)
		}
	}
	if kind == protocol.KindMedian && len(pool) > 0 {
		w := middleOf(pool)
		global = &w
	}
	return want, global
}

// check compares one extreme result with the oracle: the cell list, every
// cell's value, holders and median pair, and the query-global outcome.
func (orc *oracle) check(t *testing.T, kind protocol.ExtremeKind, res *ExtremeResult) {
	t.Helper()
	if !slices.Equal(res.Cells, orc.cells) {
		t.Fatalf("%v cells = %v, want %v", kind, res.Cells, orc.cells)
	}
	want, global := orc.extremes(kind)
	if len(res.PerCell) != len(want) {
		t.Fatalf("%v answered %d cells, want %d", kind, len(res.PerCell), len(want))
	}
	for cell, w := range want {
		if got := res.PerCell[cell]; !reflect.DeepEqual(got, w) {
			t.Errorf("%v at cell %d = %+v, want %+v", kind, cell, got, w)
		}
	}
	switch {
	case global == nil:
		if res.Global != nil {
			t.Errorf("%v over an empty intersection has a global outcome %+v", kind, res.Global)
		}
	case res.Global == nil:
		t.Errorf("%v over %d cells has no global outcome", kind, len(orc.cells))
	case kind == protocol.KindMedian:
		if !reflect.DeepEqual(*res.Global, *global) || res.GlobalCell != 0 {
			t.Errorf("global median = %+v at %d, want %+v", *res.Global, res.GlobalCell, *global)
		}
	default:
		if w, ok := want[res.GlobalCell]; !ok || res.Global.Value != global.Value || !reflect.DeepEqual(*res.Global, w) {
			t.Errorf("global %v = %+v at cell %d, want %d with that cell's holders %+v", kind, *res.Global, res.GlobalCell, global.Value, w)
		}
	}
}

// extremeOf maps the extreme kinds to their §6.3/§6.4 round kind.
var extremeOf = map[OpKind]protocol.ExtremeKind{
	OpPSIMax: protocol.KindMax, OpPSIMin: protocol.KindMin, OpPSIMedian: protocol.KindMedian,
}

// answers is every kind's plaintext answer in the form answerOfResult and
// answerOfReply print.
func (orc *oracle) answers() map[OpKind]string {
	sum, cnt := map[uint64]uint64{}, map[uint64]uint64{}
	for j, cells := range orc.sets {
		for i, c := range cells {
			sum[c] += orc.vals[j][i]
			cnt[c]++
		}
	}
	agg := func(cells []uint64, withCount bool) string {
		r := &ownerengine.Result{Cells: cells, Sums: map[string]map[uint64]uint64{"v": {}}}
		if withCount {
			r.Counts = map[uint64]uint64{}
		}
		for _, c := range cells {
			r.Sums["v"][c] = sum[c]
			if withCount {
				r.Counts[c] = cnt[c]
			}
		}
		return answerOfResult(r)
	}
	out := map[OpKind]string{
		OpPSI:      answerOfResult(&ownerengine.Result{Cells: orc.cells}),
		OpPSU:      answerOfResult(&ownerengine.Result{Cells: orc.union}),
		OpPSICount: answerOfResult(&ownerengine.Result{Count: len(orc.cells)}),
		OpPSUCount: answerOfResult(&ownerengine.Result{Count: len(orc.union)}),
		OpPSISum:   agg(orc.cells, false),
		OpPSIAvg:   agg(orc.cells, true),
		OpPSUSum:   agg(orc.union, false),
		OpPSUAvg:   agg(orc.union, true),
		OpBPSI:     answerOfResult(&ownerengine.Result{Cells: orc.cells}),
	}
	for op, kind := range extremeOf {
		want, global := orc.extremes(kind)
		r := &ownerengine.Result{Cells: orc.cells, Extreme: want, Global: global}
		out[op] = answerOfResult(r)
	}
	return out
}

// frontAnswer is a query answer as the front protocol carries it: the
// one form a library Result and a gateway reply can both be put in.
// Printed with %v (maps in key order) it is the answer's fingerprint.
type frontAnswer struct {
	Cells   []uint64
	Count   int
	Sums    map[string]map[uint64]uint64
	Counts  map[uint64]uint64
	Extreme map[uint64]uint64
	Global  uint64
}

func answerOfResult(r *ownerengine.Result) string {
	a := frontAnswer{Cells: r.Cells, Count: r.Count, Sums: r.Sums, Counts: r.Counts, Extreme: map[uint64]uint64{}}
	for cell, ext := range r.Extreme {
		a.Extreme[cell] = ext.Value
	}
	if r.Global != nil {
		a.Global = r.Global.Value
	}
	return fmt.Sprintf("%+v", a)
}

func answerOfReply(r *gateway.Response) string {
	a := frontAnswer{Cells: r.Cells, Count: r.Count, Sums: r.Sums, Counts: r.Counts, Extreme: r.Extreme}
	if r.Global != nil {
		a.Global = *r.Global
	}
	return fmt.Sprintf("%+v", a)
}

// kindCols is the column list a query of kind runs over: column "v"
// where the kind takes columns.
func kindCols(kind OpKind) []string {
	if f := kind.Family(); f == ownerengine.FamilyAgg || f == ownerengine.FamilyExtreme {
		return []string{"v"}
	}
	return nil
}

// query runs kind through sys's library path and holds the answer to the
// oracle: every extreme cell's holders and median pair too.
func (orc *oracle) query(t *testing.T, sys *System, kind OpKind) *Response {
	t.Helper()
	resp := sys.execute(context.Background(), Request{Op: kind, Cols: kindCols(kind)})
	if resp.Err != nil {
		t.Fatalf("%v: %v", kind, resp.Err)
	}
	if got, want := answerOfResult(resp.Result), orc.answers()[kind]; got != want {
		t.Errorf("%v = %s, plaintext %s", kind, got, want)
	}
	if ext, ok := extremeOf[kind]; ok {
		orc.check(t, ext, resp.Extreme)
	}
	return resp
}

// directAnswers runs every kind of the kind table through the library and
// holds each answer to the oracle — bpsi, on a system outsourced without
// Config.Buckets, to the servers' unknown-table error; no kind may leave a
// session behind.
func directAnswers(t *testing.T, sys *System, orc *oracle) {
	t.Helper()
	for _, name := range ownerengine.KindNames() {
		kind, _ := ownerengine.KindByName(name)
		if kind == OpBPSI && !sys.cfg.Buckets {
			if _, err := sys.BucketizedPSI(context.Background()); err == nil || !strings.Contains(err.Error(), "unknown table") {
				t.Errorf("bpsi without bucket trees: err = %v, want an unknown-table error", err)
			}
		} else {
			orc.query(t, sys, kind)
		}
		assertNoSessions(t, sys)
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
		c.n[reflect.TypeOf(req).Name()]++
		c.mu.Unlock()
		return inner.Handle(ctx, req)
	})
}

// rounds is what the node received since the last reset, without the
// pool's liveness pings and without the types in skip.
func (c *callCounts) rounds(skip ...string) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := maps.Clone(c.n)
	for _, typ := range append(skip, "PingRequest") {
		delete(out, typ)
	}
	return out
}

// serverCalls counts, per group and server, the requests of each message
// type the servers receive.
type serverCalls [][3]*callCounts

func (sc serverCalls) reset() {
	for g := range sc {
		for _, c := range sc[g] {
			c.mu.Lock()
			clear(c.n)
			c.mu.Unlock()
		}
	}
}

// extremeRounds are the message types of the §6.3/§6.4 rounds an extreme
// query sends beyond its PSI round.
var extremeRounds = []string{"ExtremeSubmitRequest", "ExtremeFetchRequest", "ClaimSubmitRequest", "ClaimFetchRequest", "QueryDoneRequest"}

// matrix is one shape under test: its system, with every server wrapped
// to count requests and, when a lie is set, to rewrite replies; the
// oracle of its tuples; and, for TestConformance, a gateway client over
// its backends.
type matrix struct {
	sh      shape
	sys     *System
	orc     *oracle
	planted []uint64
	calls   serverCalls
	lie     atomic.Pointer[lie]
	gw      *gateway.Client
	gaps    []gapTally // TestSoundness: the cells run of each entry of gaps
}

// gapTally counts a gap's cells run and those ending in
// ErrVerificationFailed.
type gapTally struct{ runs, detected atomic.Int64 }

func newMatrix(t *testing.T, sh shape) *matrix {
	t.Helper()
	m := &matrix{sh: sh, sys: sh.system(t)}
	m.planted = plantedCells(m.sys, sh.k)
	m.orc = loadPlanted(t, m.sys, m.planted, int64(sh.b)*10+int64(sh.groups))
	m.calls = make(serverCalls, sh.groups)
	for g := range m.calls {
		for phi := range m.calls[g] {
			m.calls[g][phi] = &callCounts{n: make(map[string]int)}
			m.sys.interceptGroupServer(g, phi, func(inner transport.Handler) transport.Handler {
				inner = m.calls[g][phi].wrap(inner)
				return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
					reply, err := inner.Handle(ctx, req)
					if l := m.lie.Load(); err == nil && l != nil && l.g == g && l.phi == phi {
						reply = l.apply(req, reply)
					}
					return reply, err
				})
			})
		}
	}
	return m
}

// phases are the overlay states every shape is walked through on the
// same data: outsourced only, one update pending in the delta overlay,
// and the update compacted into the base.
var phases = []string{"none", "pending", "compacted"}

func (m *matrix) enter(t *testing.T, phase string) {
	t.Helper()
	switch phase {
	case "pending":
		m.update(t)
	case "compacted":
		if err := m.sys.CompactTables(); err != nil {
			t.Fatal(err)
		}
		for g := range m.calls {
			for phi := range m.calls[g] {
				if n := m.sys.GroupServerEngine(g, phi).DeltaBacklog(tableName); n != 0 {
					t.Errorf("group %d server %d delta backlog = %d after CompactTables", g, phi, n)
				}
			}
		}
	}
}

// groupOf is the group owning a global cell.
func (m *matrix) groupOf(cell uint64) int {
	g := m.sh.groups - 1
	for cell < m.sys.Owner(0).Engine().GroupView(g).Start {
		g--
	}
	return g
}

// deltaRecords counts each server's delta log records for table "main",
// read through a second store over its directory; nil in memory.
func (m *matrix) deltaRecords(t *testing.T) (recs [][3]int) {
	t.Helper()
	for g := 0; m.sys.cfg.DiskDir != "" && g < m.sh.groups; g++ {
		recs = append(recs, [3]int{})
		for phi := range recs[g] {
			st, err := sharestore.Open(filepath.Join(m.sys.cfg.DiskDir, serverDiskDir(g, phi)))
			if err != nil {
				t.Fatal(err)
			}
			log, err := st.ReadDeltaLog(tableName)
			if err != nil {
				t.Fatal(err)
			}
			recs[g][phi] = len(log)
		}
	}
	return recs
}

// update is the pending phase: owner 0 drops every tuple at its largest
// planted cell (its largest cell when nothing is planted) and adds one at
// the first cell of every group but the first — a cell on each group
// boundary — and at the domain's last cell, as one UpdateCells. Every
// server of a touched group must receive exactly one StoreDeltaRequest
// and, on disk, grow its delta log by exactly one record, and its S0 and
// S1 the group's rebuilt bucket tree, every level in upload windows; no
// server of an untouched group may receive anything; S0 and S1 must
// report the same backlog.
func (m *matrix) update(t *testing.T) {
	t.Helper()
	orc, eng := m.orc, m.sys.Owner(0).Engine()
	drop := slices.Max(orc.sets[0])
	if len(m.planted) > 0 {
		drop = m.planted[len(m.planted)-1]
	}
	var rmCells, rmVals, keepCells, keepVals []uint64
	for i, c := range orc.sets[0] {
		if c == drop {
			rmCells, rmVals = append(rmCells, c), append(rmVals, orc.vals[0][i])
		} else {
			keepCells, keepVals = append(keepCells, c), append(keepVals, orc.vals[0][i])
		}
	}
	var add, addVals []uint64
	for g := 1; g < m.sh.groups; g++ {
		add = append(add, eng.GroupView(g).Start)
	}
	add = append(add, eng.DomainB()-1)
	for i := range add {
		addVals = append(addVals, 40_000+uint64(i))
	}
	touched := make([]bool, m.sh.groups)
	for _, c := range append([]uint64{drop}, add...) {
		touched[m.groupOf(c)] = true
	}

	before := m.deltaRecords(t)
	m.calls.reset()
	st, err := m.sys.Owner(0).UpdateCells(context.Background(), add, map[string][]uint64{"v": addVals}, rmCells, map[string][]uint64{"v": rmVals})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if st.Cells == 0 {
		t.Error("update reports no changed cell")
	}
	after := m.deltaRecords(t)
	for g := range m.calls {
		for phi, c := range m.calls[g] {
			want := map[string]int{}
			if touched[g] {
				want["StoreDeltaRequest"] = 1
			}
			if touched[g] && phi < 2 {
				for _, n := range treeLevels(m.sys.Owner(0).Engine().GroupView(g).B) {
					want["StoreRequest"] += m.cut(n)
				}
			}
			if got := c.rounds(); !maps.Equal(got, want) {
				t.Errorf("update: group %d server %d received %v, want %v", g, phi, got, want)
			}
			if after != nil && after[g][phi]-before[g][phi] != want["StoreDeltaRequest"] {
				t.Errorf("update: group %d server %d delta log grew by %d records, want %d", g, phi, after[g][phi]-before[g][phi], want["StoreDeltaRequest"])
			}
		}
		if b0, b1 := m.sys.GroupServerEngine(g, 0).DeltaBacklog(tableName), m.sys.GroupServerEngine(g, 1).DeltaBacklog(tableName); b0 != b1 || (touched[g] && b0 == 0) {
			t.Errorf("update: group %d delta backlog S0 %d, S1 %d", g, b0, b1)
		}
	}
	orc.sets[0], orc.vals[0] = append(keepCells, add...), append(keepVals, addVals...)
	orc.rebuild()
}

// cut is how many windows the window plan cuts a run of n cells into.
func (m *matrix) cut(n uint64) int {
	if m.sh.shard == 0 || m.sh.shard >= n {
		return 1
	}
	return int((n + m.sh.shard - 1) / m.sh.shard)
}

// windows is how many requests one round over the whole table sends each
// server of group g.
func (m *matrix) windows(g int) int { return m.cut(m.sys.Owner(0).Engine().GroupView(g).B) }

// treeLevels is the node count of each level of a b-leaf bucket tree at
// ownerengine's fanout of 8, leaves first.
func treeLevels(b uint64) []uint64 {
	sizes := []uint64{b}
	for n := b; n > 1; {
		n = (n + 7) / 8
		sizes = append(sizes, n)
	}
	return sizes
}

// bucketRounds is what a bpsi query sends each of group g's S0 and S1,
// and the rounds that takes: one round per tree level the §6.6 traversal
// reaches — the whole top level, then the children of the buckets every
// owner occupies — and one PSIRequest per window of each run of adjacent
// nodes on it.
func (m *matrix) bucketRounds(g int) (requests, rounds int) {
	v := m.sys.Owner(0).Engine().GroupView(g)
	sizes := treeLevels(v.B)
	top := len(sizes) - 1
	span := uint64(1) // leaves under one node of level k
	for range top {
		span *= 8
	}
	var level []uint64 // the nodes of level k the traversal asks about
	for n := range sizes[top] {
		level = append(level, n)
	}
	for k := top; k >= 0 && len(level) > 0; k, span = k-1, span/8 {
		rounds++
		run := uint64(1)
		for i, n := range level {
			if i+1 < len(level) && level[i+1] == n+1 {
				run++
				continue
			}
			requests, run = requests+m.cut(run), 1
		}
		var next []uint64
		for _, n := range level {
			lo, hi := v.Start+n*span, v.Start+min(n*span+span, v.B)
			common := !slices.ContainsFunc(m.orc.sets, func(cells []uint64) bool {
				return !slices.ContainsFunc(cells, func(c uint64) bool { return c >= lo && c < hi })
			})
			for c := n * 8; common && k > 0 && c < min(n*8+8, sizes[k-1]); c++ {
				next = append(next, c)
			}
		}
		level = next
	}
	return requests, rounds
}

// aggGroups are the groups an aggregation kind's AggRequest round reaches:
// every group, each over its own slice of the result set — an empty
// slice too, so no group's servers learn that none of the answer is
// theirs.
func (m *matrix) aggGroups(kind OpKind) []bool {
	in := make([]bool, m.sh.groups)
	for g := range in {
		in[g] = kind.Family() == ownerengine.FamilyAgg
	}
	return in
}

// complete is one completeness cell: kind down one path — the library
// ("direct") or a loopback gateway over the system's backends — must
// answer as the oracle does (every extreme cell's holders and median pair
// too, on the direct path); each of its rounds must reach the servers as
// one request type, one request per window, and report the paper's round
// count; a disk shape must report its reads (fetch time, or epoch-cache
// hits, which take none); and no server or announcer may hold a
// session afterwards. bpsi sends one PSIRequest round per bucket-tree level
// its traversal reaches in each group (bucketRounds) and reports the
// deepest group's count.
func (m *matrix) complete(t *testing.T, path string, kind OpKind) {
	t.Helper()
	record(t)
	m.calls.reset()
	switch path {
	case "direct":
		resp := m.orc.query(t, m.sys, kind)
		rounds := map[ownerengine.Family]int{ownerengine.FamilySet: 1, ownerengine.FamilyCount: 1, ownerengine.FamilyAgg: 2}[kind.Family()]
		for g := 0; kind == OpBPSI && g < m.sh.groups; g++ {
			_, r := m.bucketRounds(g)
			rounds = max(rounds, r)
		}
		if got := resp.Result.Stats.Rounds; rounds != 0 && got != rounds {
			t.Errorf("reports %d rounds, want %d", got, rounds)
		}
		if st := resp.Result.Stats.Server; m.sys.cfg.DiskDir != "" && st.FetchNS <= 0 && st.CacheHits == 0 {
			t.Error("disk-backed query reports neither fetch time nor cache hits")
		}
	case "gateway":
		reply, err := m.gw.Query(kind.Name(), kindCols(kind), "t0", 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := answerOfReply(reply), m.orc.answers()[kind]; got != want {
			t.Errorf("answer %s, plaintext %s", got, want)
		}
	}

	round := "PSIRequest"
	switch name := kind.Name(); {
	case strings.HasPrefix(name, "psu"):
		round = "PSURequest" // PSU count is PSU, permuted
	case kind.Family() == ownerengine.FamilyCount:
		round = "CountRequest"
	}
	agg := m.aggGroups(kind)
	for g := range m.calls {
		w := m.windows(g)
		if kind == OpBPSI {
			w, _ = m.bucketRounds(g)
		}
		for phi, c := range m.calls[g] {
			want := map[string]int{}
			if phi < 2 {
				want[round] = w
			}
			if agg[g] {
				want["AggRequest"] = w
			}
			if got := c.rounds(extremeRounds...); !maps.Equal(got, want) {
				t.Errorf("group %d server %d received %v, want %v", g, phi, got, want)
			}
		}
	}
	assertNoSessions(t, m.sys)
}

// TestConformance is the completeness half of the matrix: every shape ×
// overlay phase × path × kind of the kind table. Each extreme runs twice
// per phase on unchanged data, once down each path.
func TestConformance(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name(), func(t *testing.T) {
			t.Parallel()
			record(t)
			m := newMatrix(t, sh)
			addr, _ := startGateway(t, gateway.Config{Backends: m.sys.GatewayBackends()})
			gw, err := gateway.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			m.gw = gw
			for _, phase := range phases {
				m.enter(t, phase)
				for _, path := range []string{"direct", "gateway"} {
					for _, name := range ownerengine.KindNames() {
						kind, _ := ownerengine.KindByName(name)
						t.Run(phase+"/"+path+"/"+name, func(t *testing.T) { m.complete(t, path, kind) })
					}
				}
			}
		})
	}
}

// mutation is one §3.2/§5.2 attack, as an edit of reply vectors: every
// []uintN the named fields hold (each column of a map field) is handed to
// edit as []uint64 and replaced by what it returns. A nil edit strips the
// field.
type mutation struct {
	name   string
	fields []string // "Reply.Field"
	edit   func(l *lie, u []uint64, off uint64) []uint64
}

// vectors are the result vectors a server computes cell by cell.
var vectors = []string{"PSIReply.Out", "CountReply.Out", "PSUReply.Out", "AggReply.Sums"}

// every sets every entry of u to v.
func every(u []uint64, v uint64) []uint64 {
	for i := range u {
		u[i] = v
	}
	return u
}

// nudge adds one to the middle entry of u.
func nudge(_ *lie, u []uint64, _ uint64) []uint64 {
	u[len(u)/2]++
	return u
}

// mutations are the attacks TestSoundness replays. Count-side is the
// nudge on a count's permuted pair, one side at a time.
var mutations = []mutation{
	{"skip", vectors, func(_ *lie, u []uint64, _ uint64) []uint64 { return every(u, u[0]) }}, // a lazy server repeats cell 0
	{"skip-last", vectors, func(_ *lie, u []uint64, _ uint64) []uint64 { return u[:len(u)-1] }},
	{"replace", vectors, func(_ *lie, u []uint64, _ uint64) []uint64 {
		for j := range u {
			if u[j] != u[0] {
				u[0] = u[j] // cell 0 takes cell j's value
				break
			}
		}
		return u
	}},
	{"inject-one", vectors, func(_ *lie, u []uint64, _ uint64) []uint64 { return every(u, 1) }},
	// The 32-bit vectors, every cell: MaxUint32 mod η is a group element,
	// so it is the honest value wherever the other share has that residue.
	{"inject-max", vectors[:2], func(_ *lie, u []uint64, _ uint64) []uint64 { return every(u, math.MaxUint32) }},
	{"nudge", []string{"PSIReply.Out", "PSIReply.Vout", "AggReply.Sums"}, nudge},
	{"count-side", []string{"CountReply.Out", "CountReply.Vout"}, nudge},
	{"strip", []string{"PSIReply.Vout", "CountReply.Vout", "AggReply.VSums"}, nil},
	{"patched", []string{"PSIReply.Out", "AggReply.Sums"}, func(l *lie, u []uint64, off uint64) []uint64 {
		u[l.patched-off]++
		return u
	}},
	{"extreme-value", []string{"ExtremeFetchReply.ValueShares"}, func(l *lie, u []uint64, _ uint64) []uint64 {
		u[l.cell] = 0
		return u
	}},
	{"extreme-index", []string{"ExtremeFetchReply.IndexShares"}, func(l *lie, u []uint64, _ uint64) []uint64 {
		u[l.cell] = (u[l.cell] + 1) % l.delta
		return u
	}},
	{"extreme-fpos", []string{"ClaimFetchReply.Fpos"}, func(l *lie, u []uint64, _ uint64) []uint64 {
		i := (l.owners-1)*l.k + l.cell // the last owner's claim share for the cell
		u[i] = (u[i] + l.delta/2) % l.delta
		return u
	}},
	{"claim-nonwinner", []string{"ClaimFetchReply.Fpos"}, func(l *lie, u []uint64, _ uint64) []uint64 {
		i := l.nonWinner*l.k + l.cell
		u[i] = (u[i] + 1) % l.delta
		return u
	}},
}

// gaps are the soundness cells undetected by design, each naming the
// ROADMAP direction whose row it is: D4 for PSU, D5 for the rest. The
// table only shrinks: once every cell of an entry ends in
// ErrVerificationFailed, TestSoundness fails until the entry is deleted.
var gaps = []gap{
	{[]string{"psu", "psucount"}, "PSUReply.", "",
		"D4, PSU rows: the paper defines no PSU verification, so a PSU reply binds nothing (ownerengine.Exec)"},
	{[]string{"max", "min"}, "ClaimFetchReply.Fpos", "claim-nonwinner",
		"D5, Fpos row: a ±1 shift of a non-winner's fpos share still reconstructs to a bit, adding a co-holder undetected"},
	{[]string{"median"}, "ExtremeFetchReply.ValueShares", "extreme-value",
		"D5, median row: a forged value share is caught only when it decodes outside F's image (Q > 2·F(MaxAgg+1), so about half the time); no other check binds the median"},
	{[]string{"bpsi"}, "PSIReply.", "",
		"D5, bucketized PSI row: the bucket-tree levels carry no χ̄ side, so a level's PSI reply binds nothing (ownerengine.BucketResult)"},
}

type gap struct {
	kinds    []string // kind names
	field    string   // "Reply.Field", or "Reply." for every field of the reply
	mutation string   // "" is every mutation
	reason   string
}

// gapOf is the index in gaps of the entry listing a cell, or -1.
func gapOf(kind OpKind, mut, field string) int {
	return slices.IndexFunc(gaps, func(g gap) bool {
		return slices.Contains(g.kinds, kind.Name()) && strings.HasPrefix(field, g.field) && (g.mutation == "" || g.mutation == mut)
	})
}

// lie is one soundness cell's liar: server phi of group g rewrites field
// in the replies of one window with mut, and counts how often it did.
type lie struct {
	mut     mutation
	field   string
	g, phi  int
	window  uint64 // stored offset of the window lied in
	patched uint64 // "patched": the stored position the update changed
	// Extreme rounds: the round's cell index lied about, its cell count,
	// the owner count, δ, and an owner that does not hold the cell's
	// extreme.
	cell, k, owners, nonWinner int
	delta                      uint64
	fired                      atomic.Int64
}

// apply rewrites reply when it is the lie's target.
func (l *lie) apply(req, reply any) any {
	typ, field, _ := strings.Cut(l.field, ".")
	if reflect.TypeOf(reply).Name() != typ {
		return reply
	}
	// The extreme rounds' requests carry no window: their replies are
	// whole vectors.
	var rg protocol.Range
	if shard := reflect.ValueOf(req).FieldByName("Shard"); shard.IsValid() {
		rg = shard.Interface().(protocol.Range)
		if l.mut.name == "patched" && (l.patched < rg.Offset || l.patched >= rg.End()) ||
			l.mut.name != "patched" && rg.Offset != l.window {
			return reply
		}
	}
	if ready := reflect.ValueOf(reply).FieldByName("Ready"); ready.IsValid() && !ready.Bool() {
		return reply
	}
	l.fired.Add(1)
	v := reflect.New(reflect.TypeOf(reply)).Elem()
	v.Set(reflect.ValueOf(reply))
	f := v.FieldByName(field)
	edit := func(s reflect.Value) reflect.Value { return l.editVector(s, rg.Offset) }
	switch {
	case l.mut.edit == nil:
		f.Set(reflect.Zero(f.Type()))
	case f.Kind() == reflect.Map:
		cols := reflect.MakeMap(f.Type())
		for it := f.MapRange(); it.Next(); {
			cols.SetMapIndex(it.Key(), edit(it.Value()))
		}
		f.Set(cols)
	default:
		f.Set(edit(f))
	}
	return v.Interface()
}

// editVector runs the mutation over a copy of one reply vector: []uintN,
// or [][]byte of big-endian shares, whose entries the edit leaves alone
// keep their bytes.
func (l *lie) editVector(s reflect.Value, off uint64) reflect.Value {
	u := make([]uint64, s.Len())
	shares := s.Type().Elem().Kind() == reflect.Slice
	for i := range u {
		if shares {
			u[i] = new(big.Int).SetBytes(s.Index(i).Bytes()).Uint64()
		} else {
			u[i] = s.Index(i).Uint()
		}
	}
	orig := slices.Clone(u)
	u = l.mut.edit(l, u, off)
	out := reflect.MakeSlice(s.Type(), len(u), len(u))
	for i, x := range u {
		switch {
		case !shares:
			out.Index(i).SetUint(x)
		case x == orig[i]:
			out.Index(i).Set(s.Index(i))
		default:
			out.Index(i).SetBytes(new(big.Int).SetUint64(x).Bytes())
		}
	}
	return out
}

// liar builds the lie of one soundness cell — mutation mi on field, in
// kind's query — or returns nil when the last group never sends that
// field in this phase. The liar is a server of the last group, rotating
// over S0, S1 and S2 (S0 and S1 for fields S2 never sends) across
// mutations, and lies in one window: the second in a many-window shape,
// the one holding the patched cell for "patched". bpsi, whose level
// rounds carry no Vout and never read the main table's stored positions,
// is lied to at offset 0 of every level, the one offset its traversal
// always sends (the top level's).
func (m *matrix) liar(phase string, kind OpKind, mi int, field string) *lie {
	mut := mutations[mi]
	typ, _, _ := strings.Cut(field, ".")
	name, last := kind.Name(), m.sh.groups-1
	lastView := m.sys.Owner(0).Engine().GroupView(last)
	var round []uint64 // the intersection cells of the last group's extreme round
	for _, c := range m.orc.cells {
		if c >= lastView.Start {
			round = append(round, c)
		}
	}
	// A kind is lied to in the round it adds: an aggregation's or an
	// extreme's result-set round is the PSI or PSU query itself, the same
	// owner code whichever kind runs it, so its lies are the set kinds'.
	var sends bool
	switch psu := strings.HasPrefix(name, "psu"); kind.Family() {
	case ownerengine.FamilySet:
		sends = typ == "PSIReply" && !psu && (kind != OpBPSI || field != "PSIReply.Vout") || typ == "PSUReply" && psu
	case ownerengine.FamilyCount:
		sends = typ == "CountReply" && !psu || typ == "PSUReply" && psu
	case ownerengine.FamilyAgg:
		sends = typ == "AggReply" && m.aggGroups(kind)[last]
	case ownerengine.FamilyExtreme:
		sends = len(round) > 0 && (typ == "ExtremeFetchReply" && (field != "ExtremeFetchReply.IndexShares" || kind != OpPSIMedian) ||
			typ == "ClaimFetchReply" && kind != OpPSIMedian)
	}
	if !sends || mut.name == "patched" && (phase != "pending" || kind == OpBPSI) {
		return nil
	}
	nsrv := 2
	if typ == "AggReply" {
		nsrv = 3
	}
	l := &lie{mut: mut, field: field, g: last, phi: mi % nsrv, owners: m.sh.owners, delta: lastView.Delta, nonWinner: -1}
	if m.sh.shard == manyWindows && kind != OpBPSI {
		l.window = manyWindows
	}
	local := m.sys.Owner(0).Engine().DomainB() - 1 - lastView.Start // the update's last cell, group-local
	l.patched = uint64(lastView.DB1[local])
	if ext, ok := extremeOf[kind]; ok && len(round) > 0 {
		l.k, l.cell = len(round), len(round)/2
		want, _ := m.orc.extremes(ext)
		for j := m.sh.owners - 1; j >= 0; j-- {
			if !slices.Contains(want[round[l.cell]].Owners, j) {
				l.nonWinner = j
			}
		}
	}
	if mut.name == "claim-nonwinner" && l.nonWinner < 0 {
		return nil
	}
	return l
}

// lieOnce is one soundness cell: kind's query with the liar in place must
// end in ErrVerificationFailed — through the §5.2 product check itself,
// r1·r2 ≢ 1 at some cell (Equations 1 and 10), when a PSI or count reply
// kept its shape — unless gaps lists the cell, whose outcome is tallied
// instead; either way no session may be left behind.
func (m *matrix) lieOnce(t *testing.T, kind OpKind, l *lie) {
	t.Helper()
	record(t)
	m.lie.Store(l)
	resp := m.sys.execute(context.Background(), Request{Op: kind, Cols: kindCols(kind)})
	m.lie.Store(nil)
	if l.fired.Load() == 0 {
		t.Fatalf("group %d server %d never sent a %s to lie in", l.g, l.phi, l.field)
	}
	typ, _, _ := strings.Cut(l.field, ".")
	switch gap := gapOf(kind, l.mut.name, l.field); {
	case gap >= 0:
		m.gaps[gap].runs.Add(1)
		if errors.Is(resp.Err, ErrVerificationFailed) {
			m.gaps[gap].detected.Add(1)
		}
	case (typ == "PSIReply" || typ == "CountReply") && l.mut.edit != nil && l.mut.name != "skip-last":
		if !errors.Is(resp.Err, ErrVerificationFailed) || !strings.Contains(resp.Err.Error(), "fails r1·r2 ≡ 1") {
			t.Errorf("err = %v, want ErrVerificationFailed from the r1·r2 check", resp.Err)
		}
	case !errors.Is(resp.Err, ErrVerificationFailed):
		t.Errorf("err = %v, want ErrVerificationFailed", resp.Err)
	}
	assertNoSessions(t, m.sys)
}

// TestSoundness is the soundness half of the matrix: every shape ×
// overlay phase (none, pending) × kind × mutation it applies to, on the
// direct path, with only the last group lying and in one window. After
// each kind's lies an honest run must again answer as the oracle does.
func TestSoundness(t *testing.T) {
	tally := make([]gapTally, len(gaps))
	t.Cleanup(func() {
		for i, gap := range gaps {
			if n := tally[i].runs.Load(); n > 0 && tally[i].detected.Load() == n {
				t.Errorf("all %d cells of the gap %q end in ErrVerificationFailed: delete its entry from gaps", n, gap.reason)
			}
		}
	})
	for _, sh := range shapes {
		t.Run(sh.name(), func(t *testing.T) {
			t.Parallel()
			record(t)
			m := newMatrix(t, sh)
			m.gaps = tally
			for _, phase := range phases[:2] {
				m.enter(t, phase)
				for _, name := range ownerengine.KindNames() {
					kind, _ := ownerengine.KindByName(name)
					for mi, mut := range mutations {
						for _, field := range mut.fields {
							if l := m.liar(phase, kind, mi, field); l != nil {
								t.Run(phase+"/"+name+"/"+mut.name+"/"+field, func(t *testing.T) { m.lieOnce(t, kind, l) })
							}
						}
					}
					t.Run(phase+"/"+name+"/honest", func(t *testing.T) { m.complete(t, "direct", kind) })
				}
			}
		})
	}
}

// assertNoSessions checks every server engine and the announcer hold
// zero live query sessions.
func assertNoSessions(t testing.TB, sys *System) {
	t.Helper()
	for g, grp := range sys.servers {
		for phi, e := range grp {
			if n := e.Sessions(); n != 0 {
				t.Errorf("group %d server %d still holds %d query sessions after all queries completed", g, phi, n)
			}
		}
	}
	if n := sys.ann.Sessions(); n != 0 {
		t.Errorf("announcer still holds %d query sessions after all queries completed", n)
	}
}
