// Column sets and the fetch layer: everything between a chunk file and
// a kernel.
//
// A server stores, per owner, a handful of length-b share vectors — χ
// and χ̄ as uint16 additive shares, each sum/count column and its
// verification twin as uint64 field shares. specCols is the single
// enumeration of those columns; every layer names a column by the layout
// name it produces ("chi", "sum.<col>", …), in RAM (ownerCols), in the
// delta log and in the epoch cache ("o<owner>.<name>", colKey), and on
// disk in the owner's live slot (slotKey). The code
// here is generic over the cell type: the only width-specific work left
// is the little-endian layout the store reads through (levec). A kernel
// reads one owner-summed vector (ownerSum), cut from the one owner sum
// every tier keeps per table epoch and column: the stored cells of its
// window or, for every window of a permuted reply, the whole table
// included, the cells pf⁻¹ names, gathered into reply order.
package serverengine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
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

// colKey is the logical name of one owner's column: the delta log, the
// overlay and the epoch cache key columns by it, and it is the column's
// on-disk name in slot 0.
func colKey(owner int, col string) string { return fmt.Sprintf("o%d.%s", owner, col) }

// slotKey is the on-disk name of one owner's column in one of its two
// column slots: slot 0 is colKey's name, slot 1 "pend<owner>.<col>". The
// manifest records each owner's live slot (TableManifest.Slots); an
// upload writes the other. This is the one place a disk name is made.
func slotKey(owner, slot int, col string) string {
	if slot == 0 {
		return colKey(owner, col)
	}
	return fmt.Sprintf("pend%d.%s", owner, col)
}

// splitColKey is colKey's inverse.
func splitColKey(key string) (owner int, col string, ok bool) {
	head, col, found := strings.Cut(key, ".")
	if !found || len(head) < 2 || head[0] != 'o' {
		return 0, "", false
	}
	owner, err := strconv.Atoi(head[1:])
	return owner, col, err == nil && owner >= 0
}

// colSet is the columns of one cell type, keyed by layout name.
type colSet[T sharestore.Cell] map[string][]T

// ownerCols is one owner's column set. Once registered in a table it is
// immutable, so queries read it without locks; on a disk engine it holds
// no cells — the columns live in the store under the slotKey names of
// its slot.
type ownerCols struct {
	u16  colSet[uint16]
	u64  colSet[uint64]
	slot int
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

// createCols initialises empty cells-cell store columns in one owner's
// slot, in cols order, once dropSlot has emptied the slot.
func (e *Engine) createCols(table string, owner, slot int, cols []colDef, cells uint64) error {
	if _, err := e.dropSlot(table, owner, slot, cols); err != nil {
		return err
	}
	for _, cd := range cols {
		mk := sharestore.Create[uint64]
		if cd.width == 2 {
			mk = sharestore.Create[uint16]
		}
		if err := mk(e.opts.Store, table, slotKey(owner, slot, cd.name), cells); err != nil {
			return err
		}
	}
	return nil
}

// dropSlot deletes the columns one owner's slot holds, last column
// first, and reports whether it held any.
func (e *Engine) dropSlot(table string, owner, slot int, cols []colDef) (dropped bool, err error) {
	st := e.opts.Store
	for i := len(cols) - 1; i >= 0; i-- {
		key := slotKey(owner, slot, cols[i].name)
		if !st.HasColumn(table, key) {
			continue
		}
		dropped = true
		if err := e.step("drop:" + key); err != nil {
			return dropped, err
		}
		if err := st.DeleteColumn(table, key); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// writeAt patches the set's columns into one owner's slot as the window
// starting at cell off.
func (s colSet[T]) writeAt(st *sharestore.Store, table string, owner, slot int, off uint64) error {
	for name, v := range s {
		if err := sharestore.WriteRange(st, table, slotKey(owner, slot, name), off, v); err != nil {
			return err
		}
	}
	return nil
}

func (oc *ownerCols) writeAt(st *sharestore.Store, table string, owner, slot int, off uint64) error {
	if err := oc.u16.writeAt(st, table, owner, slot, off); err != nil {
		return err
	}
	return oc.u64.writeAt(st, table, owner, slot, off)
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
// vector. Every tier — in memory and on disk — keeps one whole-column
// owner sum per table epoch and column, overlay-free, held in the
// epoch's cache (epochSum). It is
// built single-flight on the epoch's first read of the column by the one
// M-way add, sumOwners, one owner-0 chunk range at a time, so each owner
// chunk is read once per epoch (owners written with another chunk size
// than owner 0's excepted). A window is a reslice of the sum; a
// window of a permuted reply, the whole table included, one gather from
// it (gatherCells). resetCache, run on every registration, compaction
// swap and recovery, is the only invalidation. The overlay is
// merged into the fetched cells afterwards (mergeOverlay).
//
// Underneath, a build reads one owner's base cells — overlay-free —
// through fetchWindow: a slice of the in-memory column, or the chunks
// that overlap the window read straight from the store. Store reads are
// timed into Stats.FetchNS. A server therefore holds, per served table,
// one owner sum of every column queried this epoch — 1/M of the table's
// bytes — plus the owner chunks pending updates land in (ownerBase) and
// O(window + chunk) cells per request.
//
// A fetched slice is either shared — an in-memory column, a cached chunk
// or a window of an owner sum, untouched by the overlay — or borrowed:
// taken from the cell pool by the fetch itself (every gather, every
// window read from chunks, and the copy of a shared sum an overlay entry
// lands in). Borrowed slices live for one kernel call, after which the
// caller releases them.

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

// cached loads entry id — a retained, shared slice — through the table's
// epoch cache and counts the lookup.
func cached[T sharestore.Cell](t *tableView, id chunkID, stats *protocol.Stats, load func() ([]T, error)) ([]T, error) {
	v, hit, err := cacheGet(t.cache, id, load)
	if hit {
		stats.CacheHits++
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	return v, err
}

// fetchWindow returns owner j's base cells [rg.Offset, rg.End()) of a
// column and whether the slice is borrowed: a zero-copy slice of an
// in-memory column, otherwise a borrowed slice filled straight from the
// chunk files.
func fetchWindow[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, rg protocol.Range, stats *protocol.Stats) ([]T, bool, error) {
	if e.opts.Store == nil {
		v, err := memCol[T](e, t, owner, col)
		if err != nil {
			return nil, false, err
		}
		return v[rg.Offset:rg.End()], false, nil
	}
	out := cellPool[T]().Get(int(rg.Count))
	start := time.Now()
	err := sharestore.ReadRangeInto(e.opts.Store, t.spec.Name, slotKey(owner, t.owners[owner].slot, col), rg.Offset, out)
	fetchTime(stats, start)
	if err != nil {
		release(e, out)
		return nil, false, err
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

// sumKey names the epoch cache's owner-sum entry of a column; the owner
// chunks sit beside it under colKey names.
func sumKey(col string) string { return "Σ." + col }

// ownerSum returns Σ_j col_j over one fetch with the delta overlay merged
// in, and whether the slice is borrowed. The fetch is the stored-cell
// window rg or, when idx is non-nil, the stored cells idx = pf⁻¹[rg] in
// idx order: the window rg of a reply permuted by pf.
func ownerSum[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, idx []uint32, pf perm.Perm, stats *protocol.Stats) ([]T, bool, error) {
	sum, err := epochSum[T](e, t, col, stats)
	if err != nil {
		return nil, false, err
	}
	v, borrowed := sum[rg.Offset:rg.End()], false
	if idx != nil {
		v, borrowed = gatherCells(sum, idx, stats), true
	}
	if t.delta == nil {
		return v, borrowed, nil
	}
	return mergeOverlay(e, t, col, rg, idx, pf, v, borrowed, stats)
}

// epochSum returns the epoch's owner sum of the whole column, shared,
// building it on the epoch's first read one owner-0 chunk range at a
// time (the whole column in memory): each owner chunk is read once when
// the owners' columns share a chunk size, and the build holds O(chunk)
// cells beside the sum. A chunk range a pending entry lands in is read
// through the epoch's cache (baseChunk) on every owner on owner 0's
// chunk grid, so the overlay merge that follows reads no chunk again.
func epochSum[T sharestore.Cell](e *Engine, t *tableView, col string, stats *protocol.Stats) ([]T, error) {
	return cached(t, chunkID{sumKey(col), 0}, stats, func() ([]T, error) {
		cc, cells, err := chunkGrid(e, t, 0, col)
		if err != nil {
			return nil, err
		}
		hot := make(map[uint64]bool)
		if t.delta != nil {
			for _, h := range t.delta.hits(e.view.M, col, protocol.Range{Count: cells}, nil, nil) {
				hot[h.p/cc] = true
			}
		}
		sum := make([]T, cells)
		for off := uint64(0); off < cells; off += cc {
			rg := protocol.Range{Offset: off, Count: min(cc, cells-off)}
			err = sumOwners(e, sum[off:rg.End()], func(j int) ([]T, bool, error) {
				if hot[off/cc] {
					if jcc, _, err := chunkGrid(e, t, j, col); err == nil && jcc == cc {
						v, err := baseChunk[T](e, t, j, col, off/cc, stats)
						return v, false, err
					}
				}
				return fetchWindow[T](e, t, j, col, rg, stats)
			}, stats)
			if err != nil {
				return nil, err
			}
		}
		return sum, nil
	})
}

// chunkGrid is the geometry of owner j's column: chunks of cc cells over
// cells cells. In memory one chunk is the whole column.
func chunkGrid(e *Engine, t *tableView, owner int, col string) (cc, cells uint64, err error) {
	if e.opts.Store == nil {
		return max(t.spec.B, 1), t.spec.B, nil
	}
	info, err := e.opts.Store.Stat(t.spec.Name, slotKey(owner, t.owners[owner].slot, col))
	return max(info.ChunkCells, 1), info.Cells, err
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

// gatherCells returns sum[idx[i]] for every i in a borrowed slice.
func gatherCells[T sharestore.Cell](sum []T, idx []uint32, stats *protocol.Stats) []T {
	defer fetchTime(stats, time.Now())
	out := cellPool[T]().Get(len(idx))
	for i, p := range idx {
		out[i] = sum[p]
	}
	return out
}
