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
// is sharestore's little-endian encode/decode.
package serverengine

import (
	"fmt"
	"slices"
	"time"

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
// immutable, so queries read it without locks; an onDisk set holds no
// cells — its columns live in the store under colKey names.
type ownerCols struct {
	u16    colSet[uint16]
	u64    colSet[uint64]
	onDisk bool
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
// Every handler fetches exactly the stored cells its reply window needs:
// contiguous windows via fetchWindow (reading only the chunks that
// overlap the window) and scattered cells — permuted reply windows,
// bucket-tree frontiers — via fetchGather (visiting the touched chunks
// one at a time, so residency stays O(window + chunk)). In-memory tables
// hand out zero-copy slices and report no fetch time; disk reads are
// timed into Stats.FetchNS and served through the per-table hot-chunk
// cache when enabled. Both merge the table's delta overlay in.
//
// A fetched slice is either shared — an in-memory column, a cached
// chunk, or patchWindow's clone of one — or borrowed: taken from the
// cell pool by the fetch itself (every gather, and every window that had
// to be read or joined). Borrowed slices live for one kernel call:
// ownerCells hands the caller a release function for exactly those.

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

// cached loads entry k of disk column key — a retained, shared slice —
// through the table's chunk cache, timing the store read when it runs.
func cached[T sharestore.Cell](t *tableView, key string, k uint64, stats *protocol.Stats, read func() ([]T, error)) ([]T, error) {
	v, hit, err := cacheGet(t.cache, chunkID{key, k}, func() ([]T, error) {
		start := time.Now()
		v, err := read()
		stats.FetchNS += time.Since(start).Nanoseconds()
		return v, err
	})
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
		return sharestore.ReadChunk[T](e.opts.Store, t.spec.Name, key, k)
	})
}

// fetchWindow returns owner j's cells [rg.Offset, rg.End()) of a column,
// with the table's delta overlay merged in, and whether the slice is
// borrowed. Shared slices are cloned only when an overlay entry actually
// lands in the window; borrowed ones are patched in place.
func fetchWindow[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]T, bool, error) {
	v, borrowed, err := fetchWindowRaw[T](e, t, owner, col, rg, stats)
	if err != nil || t.delta == nil {
		return v, borrowed, err
	}
	start := time.Now()
	v = patchWindow(t.delta, colKey(owner, col), rg, v, borrowed)
	stats.PatchNS += time.Since(start).Nanoseconds()
	return v, borrowed, nil
}

// fetchWindowRaw is the overlay-free window fetch: a zero-copy slice for
// in-memory tables and windows the chunk cache holds whole, otherwise a
// borrowed slice filled straight from the chunk files (cache off) or
// joined from cached chunks.
func fetchWindowRaw[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]T, bool, error) {
	if !t.owners[owner].onDisk {
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
		stats.FetchNS += time.Since(start).Nanoseconds()
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
	if rg.Offset == 0 && rg.Count == info.Cells && info.NumChunks() > 1 {
		// Whole-table window over a multi-chunk column: cache the
		// assembled column as one entry so warm queries get a zero-copy
		// slice handoff instead of re-joining chunks per query.
		v, err := cached(t, key, fullColumnChunk, stats, func() ([]T, error) {
			return sharestore.ReadRange[T](e.opts.Store, t.spec.Name, key, 0, info.Cells)
		})
		return v, false, err
	}
	out := cellPool[T]().Get(int(rg.Count))
	for k := rg.Offset / cc; rg.Count > 0 && k*cc < rg.End(); k++ {
		chunk, err := chunkSpan[T](e, t, key, k, stats)
		if err != nil {
			return nil, false, err
		}
		lo, hi := max(k*cc, rg.Offset), min(k*cc+uint64(len(chunk)), rg.End())
		copy(out[lo-rg.Offset:], chunk[lo-k*cc:hi-k*cc])
	}
	return out, true, nil
}

// gatherPlan groups scattered cell indices by the chunk that holds
// them, so a gather visits each touched chunk exactly once. order holds
// positions into idx, grouped by chunk; starts[c] is the first position
// of chunk chunks[c] within order. Built in O(n + touched chunks) with
// a counting pass — no comparison sort — and shared across every
// owner's column of the same chunk geometry.
type gatherPlan struct {
	cc     uint64
	chunks []uint64
	starts []int
	order  []int32
}

func buildGatherPlan(idx []uint32, cc, cells uint64) gatherPlan {
	nchunks := int((cells + cc - 1) / cc)
	counts := make([]int, nchunks)
	for _, c := range idx {
		counts[uint64(c)/cc]++
	}
	chunks := make([]uint64, 0, nchunks)
	starts := make([]int, 1, nchunks+1)
	next := make([]int, nchunks)
	for k, n := range counts {
		if n == 0 {
			continue
		}
		next[k] = starts[len(starts)-1]
		chunks = append(chunks, uint64(k))
		starts = append(starts, next[k]+n)
	}
	order := make([]int32, len(idx))
	for i, cell := range idx {
		k := uint64(cell) / cc
		order[next[k]] = int32(i)
		next[k]++
	}
	return gatherPlan{cc: cc, chunks: chunks, starts: starts, order: order}
}

// fetchGather returns owner j's cells idx[0..n) of a column, in idx
// order, with the delta overlay merged in; the slice is always borrowed.
// Disk tables visit each touched chunk once (per the plan), so residency
// is O(len(idx) + chunk) even when the indices scatter across the whole
// column (permuted reply windows, bucket-tree frontiers).
func fetchGather[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, idx []uint32, plan *gatherPlan, stats *protocol.Stats) ([]T, bool, error) {
	out, err := fetchGatherRaw[T](e, t, owner, col, idx, plan, stats)
	if err == nil && t.delta != nil {
		start := time.Now()
		patchGather(t.delta, colKey(owner, col), idx, out)
		stats.PatchNS += time.Since(start).Nanoseconds()
	}
	return out, true, err
}

// fetchGatherRaw is the overlay-free gather. With the cache off the
// store copies the wanted cells straight out of each verified chunk's
// bytes; no chunk is decoded whole.
func fetchGatherRaw[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, idx []uint32, plan *gatherPlan, stats *protocol.Stats) ([]T, error) {
	out := cellPool[T]().Get(len(idx))
	if !t.owners[owner].onDisk {
		v, err := memCol[T](e, t, owner, col)
		if err != nil {
			return nil, err
		}
		for i, c := range idx {
			out[i] = v[c]
		}
		return out, nil
	}
	key := colKey(owner, col)
	info, err := e.opts.Store.Stat(t.spec.Name, key)
	if err != nil {
		return nil, err
	}
	if plan == nil || plan.cc != info.ChunkCells {
		// Mixed chunk geometries across owners (a server restarted with
		// a different -chunkcells): fall back to a column-specific plan.
		p := buildGatherPlan(idx, info.ChunkCells, info.Cells)
		plan = &p
	}
	for c, k := range plan.chunks {
		order := plan.order[plan.starts[c]:plan.starts[c+1]]
		var chunk []T
		if t.cache == nil {
			start := time.Now()
			err = sharestore.GatherChunk(e.opts.Store, t.spec.Name, key, k, idx, order, out)
			stats.FetchNS += time.Since(start).Nanoseconds()
		} else if chunk, err = chunkSpan[T](e, t, key, k, stats); err == nil {
			for _, i := range order {
				out[i] = chunk[uint64(idx[i])-k*plan.cc]
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ownerCells runs fetch for every owner and returns the fetched slices
// with a release function to run once the kernel reading them has
// finished: it hands back the borrowed ones and leaves the shared alone.
func ownerCells[T sharestore.Cell](e *Engine, fetch func(owner int) ([]T, bool, error)) ([][]T, func(), error) {
	out := make([][]T, e.view.M)
	var lent [][]T
	done := func() {
		for _, v := range lent {
			release(e, v)
		}
	}
	for j := range out {
		v, borrowed, err := fetch(j)
		if err != nil {
			done()
			return nil, nil, err
		}
		if borrowed {
			lent = append(lent, v)
		}
		out[j] = v
	}
	return out, done, nil
}

// ownerWindows fetches every owner's cells of col for the stored-cell
// window rg.
func ownerWindows[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, stats *protocol.Stats) ([][]T, func(), error) {
	return ownerCells(e, func(j int) ([]T, bool, error) { return fetchWindow[T](e, t, j, col, rg, stats) })
}

// chiShares fetches every owner's χ (bar=false) or χ̄ (bar=true) share
// cells for one reply: the stored-cell window rg or, when idx is
// non-nil, the scattered stored cells idx in idx order — a window of an
// inverse server permutation or a bucket-tree frontier, used as it is.
// The chunk-grouping plan of a gather is computed once and shared across
// owners (their columns share the store's chunk geometry).
func (e *Engine) chiShares(t *tableView, bar bool, rg protocol.Range, idx []uint32, stats *protocol.Stats) ([][]uint16, func(), error) {
	col := "chi"
	if bar {
		col = "chibar"
	}
	if idx == nil {
		return ownerWindows[uint16](e, t, col, rg, stats)
	}
	var plan *gatherPlan
	for j := 0; j < e.view.M; j++ {
		if t.owners[j].onDisk {
			info, err := e.opts.Store.Stat(t.spec.Name, colKey(j, col))
			if err != nil {
				return nil, nil, err
			}
			p := buildGatherPlan(idx, info.ChunkCells, info.Cells)
			plan = &p
			break
		}
	}
	return ownerCells(e, func(j int) ([]uint16, bool, error) { return fetchGather[uint16](e, t, j, col, idx, plan, stats) })
}
