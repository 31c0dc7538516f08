// Column sets and the fetch layer: everything between a chunk file and
// a kernel.
//
// A server stores, per owner, a handful of length-b share vectors — χ
// and χ̄ as uint16 additive shares, each sum/count column and its
// verification twin as uint64 field shares. specCols is the single
// enumeration of those columns; every layer names a column by the layout
// name it produces ("chi", "sum.<col>", …), in RAM (ownerCols), on disk
// ("o<owner>.<name>"), in the delta log and in the chunk cache. The code
// here is generic over the cell type: the only width-specific work left
// is the little-endian layout the store reads through (levec). A kernel
// reads one owner-summed vector (ownerSum): the stored cells of its
// window or, for every window of a permuted reply, the whole table
// included, the cells pf⁻¹ names, gathered into reply order.
package serverengine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"prism/internal/field"
	"prism/internal/perm"
	"prism/internal/protocol"
	"prism/internal/sharestore"
	"prism/internal/slicepool"
)

// colDef names one column of a table layout (without the "o<owner>."
// prefix), its element width in bytes, and whether it is stored in χ̄
// order (PF_db2: χ̄ and the verification twins) rather than χ order.
type colDef struct {
	name  string
	width int
	bar   bool
}

// specCols enumerates the columns this server stores per owner under a
// table spec, in a deterministic order.
func (e *Engine) specCols(spec protocol.TableSpec) []colDef {
	var out []colDef
	if e.view.Index < 2 {
		out = append(out, colDef{"chi", 2, false})
		if spec.HasVerify {
			out = append(out, colDef{"chibar", 2, true})
		}
	}
	for _, col := range spec.AggCols {
		out = append(out, colDef{"sum." + col, 8, false})
		if spec.HasVerify {
			out = append(out, colDef{"vsum." + col, 8, true})
		}
	}
	if spec.HasCount {
		out = append(out, colDef{"cnt", 8, false})
		if spec.HasVerify {
			out = append(out, colDef{"vcnt", 8, true})
		}
	}
	return out
}

// colKey is the on-disk column name for one owner's column.
func colKey(owner int, col string) string { return fmt.Sprintf("o%d.%s", owner, col) }

// pendColKey is the pending (streaming upload) name of the same column.
func pendColKey(owner int, col string) string { return fmt.Sprintf("pend%d.%s", owner, col) }

// colSet is the columns of one cell type, keyed by layout name.
type colSet[T sharestore.Cell] map[string][]T

// ownerCols is one owner's column set. Once registered in a table it is
// immutable, so queries read it without locks; on a disk engine it holds
// no cells — the columns live in the store under colKey names.
type ownerCols struct {
	u16 colSet[uint16]
	u64 colSet[uint64]
}

// setOf selects the T-typed half of oc.
func setOf[T sharestore.Cell](oc *ownerCols) colSet[T] {
	if s, ok := any(oc.u16).(colSet[T]); ok {
		return s
	}
	return any(oc.u64).(colSet[T])
}

// reqCols maps the six column fields of a StoreRequest — or of a
// StoreDeltaRequest, which carries the same columns sparsely — to layout
// names.
func reqCols(chi, chibar []uint16, sums, vsums map[string][]uint64, cnt, vcnt []uint64) *ownerCols {
	oc := &ownerCols{
		u16: colSet[uint16]{"chi": chi, "chibar": chibar},
		u64: colSet[uint64]{"cnt": cnt, "vcnt": vcnt},
	}
	for col, v := range sums {
		oc.u64["sum."+col] = v
	}
	for col, v := range vsums {
		oc.u64["vsum."+col] = v
	}
	return oc
}

// layoutCols restricts a request's columns (reqCols) to the layout this
// server stores under spec and applies the length rule: every χ-order
// column carries n cells and every χ̄-order column nbar — the window of a
// Store for both, the position counts of a StoreDelta.
func (e *Engine) layoutCols(spec protocol.TableSpec, req *ownerCols, n, nbar uint64) ([]colDef, *ownerCols, error) {
	cols := e.specCols(spec)
	in := req.pick(cols)
	for _, cd := range cols {
		want := n
		if cd.bar {
			want = nbar
		}
		if got := in.cells(cd.name); uint64(got) != want {
			return nil, nil, fmt.Errorf("server %d: table %q column %s carries %d cells, want %d", e.view.Index, spec.Name, cd.name, got, want)
		}
	}
	return cols, in, nil
}

// pick restricts the set to the columns of cols that have its width (an
// absent column stays in as a nil, zero-cell entry). Sets are always
// built through pick, so everything below may range over the map and
// still touch exactly the columns specCols names.
func (s colSet[T]) pick(cols []colDef) colSet[T] {
	out := make(colSet[T], len(cols))
	for _, cd := range cols {
		if cd.width == sharestore.Width[T]() {
			out[cd.name] = s[cd.name]
		}
	}
	return out
}

func (oc *ownerCols) pick(cols []colDef) *ownerCols {
	return &ownerCols{u16: oc.u16.pick(cols), u64: oc.u64.pick(cols)}
}

// cells is the length of the named column (0 when absent).
func (oc *ownerCols) cells(name string) int { return len(oc.u16[name]) + len(oc.u64[name]) }

// blank returns zeroed n-cell columns under the same names.
func (s colSet[T]) blank(n uint64) colSet[T] {
	out := make(colSet[T], len(s))
	for name := range s {
		out[name] = make([]T, n)
	}
	return out
}

func (oc *ownerCols) blank(n uint64) *ownerCols {
	return &ownerCols{u16: oc.u16.blank(n), u64: oc.u64.blank(n)}
}

// copyAt copies src's window columns into s at cell offset off.
func (s colSet[T]) copyAt(off uint64, src colSet[T]) {
	for name, dst := range s {
		copy(dst[off:], src[name])
	}
}

func (oc *ownerCols) copyAt(off uint64, src *ownerCols) {
	oc.u16.copyAt(off, src.u16)
	oc.u64.copyAt(off, src.u64)
}

func (s colSet[T]) bytes() int64 {
	var n int64
	for _, v := range s {
		n += int64(len(v))
	}
	return n * int64(sharestore.Width[T]())
}

// bytes is the resident size of a column set (0 for nil or on-disk
// sets).
func (oc *ownerCols) bytes() int64 {
	if oc == nil {
		return 0
	}
	return oc.u16.bytes() + oc.u64.bytes()
}

// createCols initialises empty cells-cell store columns under key(name),
// in cols order: promotion renames them away in the same order, so the
// first column's pending copy tells recovery whether promotion had begun.
func createCols(st *sharestore.Store, table string, key func(string) string, cols []colDef, cells uint64) error {
	for _, cd := range cols {
		mk := sharestore.Create[uint64]
		if cd.width == 2 {
			mk = sharestore.Create[uint16]
		}
		if err := mk(st, table, key(cd.name), cells); err != nil {
			return err
		}
	}
	return nil
}

// writeAt patches the set's columns into the existing store columns
// key(name) as the window starting at cell off.
func (s colSet[T]) writeAt(st *sharestore.Store, table string, key func(string) string, off uint64) error {
	for name, v := range s {
		if err := sharestore.WriteRange(st, table, key(name), off, v); err != nil {
			return err
		}
	}
	return nil
}

func (oc *ownerCols) writeAt(st *sharestore.Store, table string, key func(string) string, off uint64) error {
	if err := oc.u16.writeAt(st, table, key, off); err != nil {
		return err
	}
	return oc.u64.writeAt(st, table, key, off)
}

// patch replaces column name with a copy that has dc's delta entries
// applied; false when the set has no such column.
func (s colSet[T]) patch(name string, dc sharestore.DeltaCol) bool {
	v, ok := s[name]
	if !ok {
		return false
	}
	v = slices.Clone(v)
	for i, p := range dc.Pos {
		v[p] = T(dc.Vals[i])
	}
	s[name] = v
	return true
}

// ---- fetch layer ----
//
// The fetch layer's contract with the kernels is ownerSum: for the
// window or permuted gather a kernel asks for, it returns Σ_j col_j over
// the M owners — δ-reduced for χ/χ̄, canonical F_p for field columns —
// with the table's delta overlay merged in, so every kernel reads one
// vector. The M-way add lives in one place, sumOwners, and runs once per
// table epoch and column: the sum is kept as entries of the epoch's cache
// (chunkCache), built lazily on first use. A server fetches in one of
// three tiers:
//
//   - in memory: the epoch cache always exists and holds one whole-column
//     owner sum per column, nothing else; a window is a reslice of it and
//     a permuted window one gather from it;
//   - on disk with the cache: one owner-sum entry per owner-0 chunk,
//     beside the owner chunks and under the same budget; a window that
//     spans entries, the whole table included, joins or gathers from
//     them per request;
//   - on disk with the cache off (a disk engine without -hotchunks):
//     each request builds its window's sum (buildSum), except a window of
//     a permuted reply, which gathers from the whole column's sum that
//     its round holds (heldGather, below).
//
// resetCache, run on every registration, compaction swap and recovery
// adoption, is the only invalidation. The cached tiers merge the overlay
// into the sum (mergeOverlay); the cache-off build patches each owner's
// cells before adding them.
//
// Underneath, one owner's base cells — overlay-free — come through
// fetchWindow, which reads only the chunks that overlap the window.
// Store reads are timed into Stats.FetchNS. With the cache off a server
// therefore holds O(window + chunk) cells per request, plus 2 bytes per
// cell per χ side of a permuted round in flight.
//
// A fetched slice is either shared — an in-memory column, a cached chunk
// or owner sum, untouched by the overlay — or borrowed: taken from the
// cell pool by the fetch itself (every gather, every window that had to
// be read, built or joined, and the copy of a shared sum an overlay entry
// lands in). Borrowed slices live for one kernel call, after which the
// caller releases them. A held sum is neither: the round owns it, and
// its windows gather out of it into borrowed slices.

// The cell pools lend the fetch layer its slices; cellPool picks T's.
var (
	u16Cells slicepool.Pool[uint16]
	u64Cells slicepool.Pool[uint64]
)

func cellPool[T sharestore.Cell]() *slicepool.Pool[T] {
	if p, ok := any(&u16Cells).(*slicepool.Pool[T]); ok {
		return p
	}
	return any(&u64Cells).(*slicepool.Pool[T])
}

// release hands a borrowed slice back once its kernel has finished.
func release[T sharestore.Cell](e *Engine, v []T) {
	if e.poisonReleased {
		for i := range v {
			v[i] = ^T(0)
		}
	}
	cellPool[T]().Put(v)
}

// memCol resolves an in-memory column by its layout name.
func memCol[T sharestore.Cell](e *Engine, t *tableView, owner int, col string) ([]T, error) {
	v, ok := setOf[T](t.owners[owner])[col]
	if !ok {
		return nil, fmt.Errorf("server %d: table %q owner %d missing %s column", e.view.Index, t.spec.Name, owner, col)
	}
	return v, nil
}

// fetchTime adds the time since start to Stats.FetchNS.
func fetchTime(stats *protocol.Stats, start time.Time) {
	stats.FetchNS += time.Since(start).Nanoseconds()
}

// cached loads entry k of key — a retained, shared slice — through the
// table's epoch cache and counts the lookup.
func cached[T sharestore.Cell](t *tableView, key string, k uint64, stats *protocol.Stats, load func() ([]T, error)) ([]T, error) {
	v, hit, err := cacheGet(t.cache, chunkID{key, k}, load)
	if hit {
		stats.CacheHits++
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	return v, err
}

// chunkSpan returns chunk k of a disk column from the hot-chunk cache.
// The slice may be shared with other queries.
func chunkSpan[T sharestore.Cell](e *Engine, t *tableView, key string, k uint64, stats *protocol.Stats) ([]T, error) {
	return cached(t, key, k, stats, func() ([]T, error) {
		defer fetchTime(stats, time.Now())
		return sharestore.ReadChunk[T](e.opts.Store, t.spec.Name, key, k)
	})
}

// fetchWindow returns owner j's base cells [rg.Offset, rg.End()) of a
// column and whether the slice is borrowed: a zero-copy slice of an
// in-memory column or of the one cached chunk the window is, otherwise a
// borrowed slice filled straight from the chunk files (cache off) or
// joined from cached chunks.
func fetchWindow[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]T, bool, error) {
	if e.opts.Store == nil {
		v, err := memCol[T](e, t, owner, col)
		if err != nil {
			return nil, false, err
		}
		return v[rg.Offset:rg.End()], false, nil
	}
	key := colKey(owner, col)
	if t.cache == nil {
		out := cellPool[T]().Get(int(rg.Count))
		start := time.Now()
		err := sharestore.ReadRangeInto(e.opts.Store, t.spec.Name, key, rg.Offset, out)
		fetchTime(stats, start)
		return out, true, err
	}
	info, err := e.opts.Store.Stat(t.spec.Name, key)
	if err != nil {
		return nil, false, err
	}
	cc := info.ChunkCells
	if rg.Count > 0 && rg.Offset%cc == 0 && rg.End() == min(rg.Offset+cc, info.Cells) {
		// The window is exactly one whole chunk (shard windows aligned to
		// the chunk size): hand out the chunk slice without copying.
		v, err := chunkSpan[T](e, t, key, rg.Offset/cc, stats)
		return v, false, err
	}
	out := cellPool[T]().Get(int(rg.Count))
	for k := rg.Offset / cc; rg.Count > 0 && k*cc < rg.End(); k++ {
		chunk, err := chunkSpan[T](e, t, key, k, stats)
		if err != nil {
			release(e, out)
			return nil, false, err
		}
		lo, hi := max(k*cc, rg.Offset), min(k*cc+uint64(len(chunk)), rg.End())
		copy(out[lo-rg.Offset:], chunk[lo-k*cc:hi-k*cc])
	}
	return out, true, nil
}

// ---- owner sums ----

// chiCol is the layout name of the χ (bar false) or χ̄ (bar true) shares.
func chiCol(bar bool) string {
	if bar {
		return "chibar"
	}
	return "chi"
}

// sumKey names the epoch cache's owner-sum entries of a column; the owner
// chunks sit beside them under colKey names.
func sumKey(col string) string { return "Σ." + col }

// ownerSum returns Σ_j col_j over one fetch with the delta overlay merged
// in, and whether the slice is borrowed. The fetch is the stored-cell
// window rg or, when idx is non-nil, the stored cells idx = pf⁻¹[rg] in
// idx order: the window rg of a reply permuted by pf. qid names the query
// round a permuted fetch belongs to; on the cache-off tier the round's
// windows gather from one held sum ("" holds nothing, see heldGather).
func ownerSum[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, idx []uint32, pf perm.Perm, qid string, stats *protocol.Stats) ([]T, bool, error) {
	if t.cache == nil {
		if idx != nil {
			v, err := heldGather[T](e, t, col, rg, idx, qid, stats)
			return v, true, err
		}
		v := cellPool[T]().Get(int(rg.Count))
		if err := buildSum(e, t, col, rg, v, stats); err != nil {
			release(e, v)
			return nil, false, err
		}
		return v, true, nil
	}
	var v []T
	var borrowed bool
	var err error
	if idx == nil {
		v, borrowed, err = sumWindow[T](e, t, col, rg, stats)
	} else {
		v, err = sumGather[T](e, t, col, idx, stats)
		borrowed = true
	}
	if err != nil || t.delta == nil {
		return v, borrowed, err
	}
	return mergeOverlay(e, t, col, rg, idx, pf, v, borrowed, stats)
}

// buildSum sets dst to the owner sum of the stored-cell window rg with
// the cache off, which only a disk engine runs: there is no epoch cache
// to keep a sum in, so it fetches every owner's base cells into a
// borrowed slice, lands the owner's overlay entries in it in place (every
// base cell an entry replaces is in hand) and adds the owners as it goes
// (sumOwners).
func buildSum[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, dst []T, stats *protocol.Stats) error {
	return sumOwners(e, dst, func(j int) ([]T, bool, error) {
		w, _, err := fetchWindow[T](e, t, j, col, rg, stats)
		if err != nil || t.delta == nil {
			return w, true, err
		}
		start := time.Now()
		t.delta.mu.RLock()
		if co := t.delta.cols[colKey(j, col)]; co != nil {
			co.landing(rg, nil, nil, func(i int, _, val uint64) { w[i] = T(val) })
		}
		t.delta.mu.RUnlock()
		stats.PatchNS += time.Since(start).Nanoseconds()
		return w, true, nil
	}, stats)
}

// sumOwners is the server's one owner loop: it sets dst to Σ_j fetch(j)
// — mod δ for χ shares, canonical F_p for field shares. The add runs
// lazily in 64 bits (the field package's AddVecLazy) and is reduced
// once; χ sums are exact there, since the owner count is below δ ≤ 2^16
// (params enforces both) and M 16-bit shares sum below 2^32. It takes
// four owners' cells per pass — the add's width — and hands their
// borrowed slices back before fetching the next four, so a build holds
// at most four owners' cells beside dst, never M. The add is fetch time:
// it is what makes the fetched vector.
func sumOwners[T sharestore.Cell](e *Engine, dst []T, fetch func(owner int) ([]T, bool, error), stats *protocol.Stats) error {
	acc, wide := any(dst).([]uint64)
	if !wide {
		acc = u64Cells.Get(len(dst))
		defer release(e, acc)
	}
	clear(acc)
	var pass [4][]T
	var lent [4]bool
	giveBack := func(n int) {
		for k := 0; k < n; k++ {
			if lent[k] {
				release(e, pass[k])
			}
		}
	}
	for j := 0; j < e.view.M; j += len(pass) {
		n := min(len(pass), e.view.M-j)
		for k := 0; k < n; k++ {
			v, borrowed, err := fetch(j + k)
			if err != nil {
				giveBack(k)
				return err
			}
			pass[k], lent[k] = v, borrowed
		}
		start := time.Now()
		srcs := pass[:n]
		e.parallel(len(acc), func(lo, hi int) { field.AddVecLazy(acc[lo:hi], srcs, lo, hi) })
		fetchTime(stats, start)
		giveBack(n)
	}
	defer fetchTime(stats, time.Now())
	e.parallel(len(dst), func(lo, hi int) {
		d := dst[lo:hi]
		for i, s := range acc[lo:hi] {
			d[i] = ringReduce[T](e, s)
		}
	})
	return nil
}

// ringReduce maps one owner-sum accumulator cell into T's ring: Z_δ for χ
// shares (the accumulator is below 2^32), canonical F_p for field shares.
func ringReduce[T sharestore.Cell](e *Engine, acc uint64) T {
	if sharestore.Width[T]() == 2 {
		return T(e.modDelta.Reduce(uint32(acc)))
	}
	return T(field.Reduce(acc))
}

// sumSpan is the geometry of a column's owner-sum entries: entry k
// covers the cells [k·cc, min((k+1)·cc, cells)). In memory one entry is
// the whole column; on disk an entry spans owner 0's chunk — one cell
// range across every owner, whatever chunk size each owner's column was
// written with.
func sumSpan(e *Engine, t *tableView, col string) (cc, cells uint64, err error) {
	if e.opts.Store == nil {
		return max(t.spec.B, 1), t.spec.B, nil
	}
	info, err := e.opts.Store.Stat(t.spec.Name, colKey(0, col))
	return max(info.ChunkCells, 1), info.Cells, err
}

// summed returns owner-sum entry k of a column, building it from the
// owners' raw cells on its first use in the epoch.
func summed[T sharestore.Cell](e *Engine, t *tableView, col string, k, cc, cells uint64, stats *protocol.Stats) ([]T, error) {
	rg := protocol.Range{Offset: k * cc, Count: min(cc, cells-k*cc)}
	return cached(t, sumKey(col), k, stats, func() ([]T, error) {
		sum := make([]T, rg.Count)
		err := sumOwners(e, sum, func(j int) ([]T, bool, error) {
			return fetchWindow[T](e, t, j, col, rg, stats)
		}, stats)
		return sum, err
	})
}

// sumWindow is the cached owner sum of the stored-cell window rg: a
// shared slice of one entry when rg lies inside it (every window in
// memory, chunk-aligned shard windows on disk), or else the touched
// entries joined into a borrowed slice.
func sumWindow[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, stats *protocol.Stats) ([]T, bool, error) {
	cc, cells, err := sumSpan(e, t, col)
	if err != nil {
		return nil, false, err
	}
	k := rg.Offset / cc
	if rg.End() <= (k+1)*cc {
		v, err := summed[T](e, t, col, k, cc, cells, stats)
		if err != nil {
			return nil, false, err
		}
		return v[rg.Offset-k*cc : rg.End()-k*cc], false, nil
	}
	out := cellPool[T]().Get(int(rg.Count))
	for ; k*cc < rg.End(); k++ {
		v, err := summed[T](e, t, col, k, cc, cells, stats)
		if err != nil {
			release(e, out)
			return nil, false, err
		}
		lo, hi := max(k*cc, rg.Offset), min(k*cc+uint64(len(v)), rg.End())
		copy(out[lo-rg.Offset:], v[lo-k*cc:hi-k*cc])
	}
	return out, true, nil
}

// sumGather gathers the cached owner sum at the stored cells idx into a
// borrowed slice, in idx order, looking each touched entry up once: one
// gather, whatever the owner count. When one entry holds the whole
// column (every in-memory column) the gather indexes it directly.
func sumGather[T sharestore.Cell](e *Engine, t *tableView, col string, idx []uint32, stats *protocol.Stats) ([]T, error) {
	cc, cells, err := sumSpan(e, t, col)
	if err != nil {
		return nil, err
	}
	if cc >= cells {
		sum, err := summed[T](e, t, col, 0, cc, cells, stats)
		if err != nil {
			return nil, err
		}
		return gatherCells(sum, idx, stats), nil
	}
	entries := make([][]T, (cells+cc-1)/cc)
	out := cellPool[T]().Get(len(idx))
	for i, p := range idx {
		k := uint64(p) / cc
		if entries[k] == nil {
			if entries[k], err = summed[T](e, t, col, k, cc, cells, stats); err != nil {
				release(e, out)
				return nil, err
			}
		}
		out[i] = entries[k][uint64(p)-k*cc]
	}
	return out, nil
}

// ---- held sums ----
//
// A window of a reply permuted by PF_s draws its cells from the whole
// column, so with the cache off a window cannot be summed from the
// chunks it touches: it touches them all. The first window of a permuted
// round builds the whole column's owner sum instead — every owner chunk
// read once (wholeSum) — and the round holds it, in stored order, under
// (query id, table, epoch, column); every window of the round, the first
// and a whole-table one included, gathers its cells idx = pf⁻¹[rg] out
// of it. Every window of a round thus reads one snapshot of the columns
// and of their overlay.
// A held sum is released when the round's windows have covered the table
// (a repeated window counts once), on QueryDone, or once it has sat idle
// for heldTTL: stale sums are swept whenever a new one is made. It counts
// in HeldBytes while it lives — 2 bytes per cell per χ side — and never
// as a cache hit.

// heldTTL is how long a held sum may sit idle before the next new one
// sweeps it: an owner that gave up on a round sends no more windows.
const heldTTL = time.Minute

// heldKey names a held sum: one χ side of one query round in one table
// epoch.
type heldKey struct {
	qid, table string
	epoch      uint64
	col        string
}

// heldSum is one round's owner sum of one column. build sets cells (a
// []T), err and free, which hands the cells back, once; the rest is
// guarded by Engine.heldMu.
type heldSum struct {
	build sync.Once
	cells any
	err   error
	free  func()

	served map[uint64]bool // offsets of the windows served so far
	left   uint64          // cells no window has served yet
	users  int             // windows between holdSum and unholdSum
	idle   time.Time       // when users last fell to 0
}

// heldGather is a permuted fetch with the cache off: the stored cells idx
// behind window rg, gathered into a borrowed slice from the whole
// column's owner sum — the one qid's round holds, or, with qid "", one
// built for this fetch alone.
func heldGather[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, idx []uint32, qid string, stats *protocol.Stats) ([]T, error) {
	if qid == "" {
		sum, err := wholeSum[T](e, t, col, stats)
		if err != nil {
			return nil, err
		}
		defer release(e, sum)
		return gatherCells(sum, idx, stats), nil
	}
	k := heldKey{qid: qid, table: t.spec.Name, epoch: t.epoch, col: col}
	h := e.holdSum(k, t.spec.B)
	h.build.Do(func() {
		sum, err := wholeSum[T](e, t, col, stats)
		if err == nil {
			bytes := int64(len(sum) * sharestore.Width[T]())
			e.trackHeld(bytes)
			h.free = func() { e.trackHeld(-bytes); release(e, sum) }
		}
		h.cells, h.err = sum, err
	})
	var out []T
	if h.err == nil {
		out = gatherCells(h.cells.([]T), idx, stats)
	}
	e.unholdSum(k, h, rg)
	return out, h.err
}

// wholeSum builds the whole column's owner sum into a borrowed slice, one
// owner-0 chunk range at a time (buildSum): each owner chunk is read once
// and the build holds O(chunk) cells beside the sum.
func wholeSum[T sharestore.Cell](e *Engine, t *tableView, col string, stats *protocol.Stats) ([]T, error) {
	cc, cells, err := sumSpan(e, t, col)
	if err != nil {
		return nil, err
	}
	sum := cellPool[T]().Get(int(cells))
	for off := uint64(0); off < cells; off += cc {
		rg := protocol.Range{Offset: off, Count: min(cc, cells-off)}
		if err := buildSum(e, t, col, rg, sum[off:rg.End()], stats); err != nil {
			release(e, sum)
			return nil, err
		}
	}
	return sum, nil
}

// gatherCells returns sum[idx[i]] for every i in a borrowed slice.
func gatherCells[T sharestore.Cell](sum []T, idx []uint32, stats *protocol.Stats) []T {
	defer fetchTime(stats, time.Now())
	out := cellPool[T]().Get(len(idx))
	for i, p := range idx {
		out[i] = sum[p]
	}
	return out
}

// holdSum returns the held sum under k, making it — and sweeping the
// stale ones — when there is none, and counts the caller as a user.
func (e *Engine) holdSum(k heldKey, cells uint64) *heldSum {
	e.heldMu.Lock()
	defer e.heldMu.Unlock()
	h := e.held[k]
	if h == nil {
		now := time.Now()
		for sk, sh := range e.held {
			if sh.users == 0 && now.Sub(sh.idle) > heldTTL {
				e.dropHeld(sk, sh)
			}
		}
		h = &heldSum{served: make(map[uint64]bool), left: cells, idle: now}
		e.held[k] = h
	}
	h.users++
	return h
}

// unholdSum ends a user of h that served window rg. A failed build is
// dropped, so the next window builds afresh; so is the sum once its
// windows have served every cell, and a sum dropped while windows
// gathered from it is freed by the last of them.
func (e *Engine) unholdSum(k heldKey, h *heldSum, rg protocol.Range) {
	e.heldMu.Lock()
	defer e.heldMu.Unlock()
	h.users--
	h.idle = time.Now()
	if h.err == nil && !h.served[rg.Offset] {
		h.served[rg.Offset] = true
		h.left -= min(h.left, rg.Count)
	}
	if h.err != nil || h.left == 0 || e.held[k] != h {
		e.dropHeld(k, h)
	}
}

// endHeld drops every held sum of query qid (QueryDone).
func (e *Engine) endHeld(qid string) {
	e.heldMu.Lock()
	defer e.heldMu.Unlock()
	for k, h := range e.held {
		if k.qid == qid {
			e.dropHeld(k, h)
		}
	}
}

// dropHeld takes h out of the held map and hands its cells back unless a
// window still gathers from them; the caller holds heldMu.
func (e *Engine) dropHeld(k heldKey, h *heldSum) {
	if e.held[k] == h {
		delete(e.held, k)
	}
	if h.users == 0 && h.free != nil {
		h.free()
		h.cells, h.free = nil, nil
	}
}
