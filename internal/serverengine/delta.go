// Incremental updates: the in-RAM half of the delta layer.
//
// A StoreDelta request — one owner's whole update — carries absolute
// replacement share values for individual stored positions. Each
// accepted update is (on disk-backed engines) appended to the table's
// delta log as one record first — one write to the log file the store
// keeps open — then merged into the table's delta overlay — a
// per-column map from stored position to the newest value — which every
// fetch path consults, so queries see updates immediately without any
// base chunk being rewritten. The background compactor periodically
// folds the overlay into the base chunks in place (sharestore.PatchCells),
// bumps the table epoch, and deletes the log files it sealed, oldest
// first.
//
// Finding the entries that land in a fetch costs the smaller of the
// column's entries and the fetched cells (landing), and one place does it
// (hits): the fetch of an epoch's owner sum, overlay-free on every tier,
// is corrected by v ⊖ base_j[p] per entry (mergeOverlay). A shared sum an
// entry lands in is copied into a borrowed slice first; an untouched one
// stays shared.
//
// Ordering invariant: per table, sequence assignment, the log append
// and the overlay insert happen under one delta lock, so when an update
// with sequence s is visible in the overlay, every update with a smaller
// sequence is too, and each is visible whole — a cell's χ together with
// its χ̄. Compaction snapshots the overlay (never the raw sequence
// counter) and seals the log file under the same lock, so the sealed
// files hold only records it folds into the base, and it deletes no
// other.
//
// Crash safety rests on records being idempotent absolute values, and
// on the manifest's CompactThrough marking the pass whose chunks may be
// torn. A pass records it before it patches any chunk in place and
// clears it with the post-swap manifest write; each chunk's new CRC
// is written before its cells. A crash between a chunk's CRC and its
// cells leaves the header vouching for the payload the pass was
// heading for, and recovery's one pass over the log rolls such a chunk
// forward from the overlay it has replayed through CompactThrough before
// it verifies anything (recoverTable). Past that point, whatever prefix of
// {patch chunks, bump manifest epoch, delete sealed files oldest-first}
// a crash permits, replaying the surviving log over the surviving base
// reproduces exactly the pre- or post-compaction values, never a mix of
// stale and fresh cells.
package serverengine

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"prism/internal/field"
	"prism/internal/perm"
	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// deltaEntryBytes is the held-bytes estimate for one overlay entry
// (position, value, sequence plus map overhead).
const deltaEntryBytes = 48

// deltaOverlay is one table's merged, not-yet-compacted delta entries.
// Readers take the read lock per fetch; inserts and truncations are
// serialised by the engine's per-table delta lock and e.mu.
type deltaOverlay struct {
	mu      sync.RWMutex
	cols    map[string]*colOverlay // keyed by colKey(owner, col)
	entries int
	bytes   int64
	maxSeq  uint64
}

type colOverlay struct {
	width int
	cells map[uint64]deltaVal // stored position → newest value
}

type deltaVal struct {
	val uint64
	seq uint64
}

func newDeltaOverlay() *deltaOverlay {
	return &deltaOverlay{cols: make(map[string]*colOverlay)}
}

// insert merges one update (already validated) at sequence seq
// and returns the held-bytes growth.
func (d *deltaOverlay) insert(ents []sharestore.DeltaCol, seq uint64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var grew int64
	for _, ent := range ents {
		co := d.cols[ent.Name]
		if co == nil {
			co = &colOverlay{width: ent.Width, cells: make(map[uint64]deltaVal)}
			d.cols[ent.Name] = co
		}
		for i, p := range ent.Pos {
			cur, ok := co.cells[p]
			if !ok {
				d.entries++
				d.bytes += deltaEntryBytes
				grew += deltaEntryBytes
			}
			if !ok || seq >= cur.seq {
				co.cells[p] = deltaVal{val: ent.Vals[i], seq: seq}
			}
		}
	}
	if seq > d.maxSeq {
		d.maxSeq = seq
	}
	return grew
}

// entryCount reports the number of live overlay entries.
func (d *deltaOverlay) entryCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.entries
}

// heldBytes reports the overlay's held-bytes accounting.
func (d *deltaOverlay) heldBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.bytes
}

// snapshot returns every overlay entry as sorted per-column position
// and value lists, plus the highest sequence the snapshot covers — the
// compactor's input. Entries inserted after snapshot returns carry a
// larger sequence and survive the truncation that follows.
func (d *deltaOverlay) snapshot() (map[string]sharestore.DeltaCol, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[string]sharestore.DeltaCol, len(d.cols))
	for name, co := range d.cols {
		if len(co.cells) == 0 {
			continue
		}
		dc := sharestore.DeltaCol{
			Name:  name,
			Width: co.width,
			Pos:   make([]uint64, 0, len(co.cells)),
		}
		for p := range co.cells {
			dc.Pos = append(dc.Pos, p)
		}
		sort.Slice(dc.Pos, func(i, j int) bool { return dc.Pos[i] < dc.Pos[j] })
		dc.Vals = make([]uint64, len(dc.Pos))
		for i, p := range dc.Pos {
			dc.Vals[i] = co.cells[p].val
		}
		out[name] = dc
	}
	return out, d.maxSeq
}

// retainAfter builds a fresh overlay holding only the entries newer
// than sequence s — the copy-on-truncate the compactor swaps in, so
// queries holding the old overlay snapshot keep a consistent view.
func (d *deltaOverlay) retainAfter(s uint64) *deltaOverlay {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nd := newDeltaOverlay()
	for name, co := range d.cols {
		for p, v := range co.cells {
			if v.seq <= s {
				continue
			}
			nc := nd.cols[name]
			if nc == nil {
				nc = &colOverlay{width: co.width, cells: make(map[uint64]deltaVal)}
				nd.cols[name] = nc
			}
			nc.cells[p] = v
			nd.entries++
			nd.bytes += deltaEntryBytes
			if v.seq > nd.maxSeq {
				nd.maxSeq = v.seq
			}
		}
	}
	return nd
}

// dropOwner removes one owner's overlay entries (a re-outsource
// replaces that owner's base wholesale, so its pending deltas describe
// the previous share stream and must not patch the new one). Returns
// the held bytes released.
func (d *deltaOverlay) dropOwner(owner int) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	pre := fmt.Sprintf("o%d.", owner)
	var released int64
	for name, co := range d.cols {
		if !strings.HasPrefix(name, pre) {
			continue
		}
		released += int64(len(co.cells)) * deltaEntryBytes
		d.entries -= len(co.cells)
		d.bytes -= int64(len(co.cells)) * deltaEntryBytes
		delete(d.cols, name)
	}
	return released
}

// landing calls fn(i, p, val) for every entry that lands in a fetch: an
// entry at stored position p, fetched cell i. The fetch is the window rg
// (idx nil) or, for a window of a reply permuted by pf, the gather
// idx = pf⁻¹[rg], where stored cell p sits at pf[p]−rg.Offset whenever
// that lies in the window (pf covers every stored position: a permuted
// table has len(pf) cells, and overlay positions are below that). It
// costs the smaller of the entries and the fetched cells: with fewer
// entries it walks them and range-checks each; otherwise it probes the
// map once per fetched cell. Caller holds the overlay's read lock.
func (co *colOverlay) landing(rg protocol.Range, idx []uint32, pf perm.Perm, fn func(i int, p, val uint64)) {
	if uint64(len(co.cells)) < rg.Count {
		for p, dv := range co.cells {
			q := p
			if idx != nil {
				q = uint64(pf[p])
			}
			if q >= rg.Offset && q-rg.Offset < rg.Count {
				fn(int(q-rg.Offset), p, dv.val)
			}
		}
		return
	}
	if idx == nil {
		for p := rg.Offset; p < rg.End(); p++ {
			if dv, ok := co.cells[p]; ok {
				fn(int(p-rg.Offset), p, dv.val)
			}
		}
		return
	}
	for i, p := range idx {
		if dv, ok := co.cells[uint64(p)]; ok {
			fn(i, uint64(p), dv.val)
		}
	}
}

// deltaHit is one overlay entry a fetch lands on: owner's value val
// replaces its base cell at stored position p, fetched cell i.
type deltaHit struct {
	i, owner int
	p, val   uint64
}

// hits collects every owner's entries of col that land in a fetch (see
// landing). The read lock is held only while the map is walked.
func (d *deltaOverlay) hits(owners int, col string, rg protocol.Range, idx []uint32, pf perm.Perm) []deltaHit {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []deltaHit
	for j := 0; j < owners; j++ {
		if co := d.cols[colKey(j, col)]; co != nil {
			co.landing(rg, idx, pf, func(i int, p, val uint64) {
				out = append(out, deltaHit{i: i, owner: j, p: p, val: val})
			})
		}
	}
	return out
}

// mergeOverlay brings the table's delta entries into an owner sum v of a
// fetch (see ownerSum) and reports whether the result is borrowed. Each
// entry swaps its owner's base cell for its value: v ⊕ (val ⊖ base_j[p])
// in Z_δ or F_p, with base_j[p] read from the owner's chunk that holds it
// (ownerBase) — one read per owner and chunk touched per epoch, not one
// per entry or per query. Every cell an entry lands in is first
// re-added from all owners' bases as the epoch's cache holds them, so
// the cell and its corrections rest on one version of
// each base cell even when a compaction has folded an entry into the
// chunk files since the sum was built (an owner without an entry at the
// cell has no cell there for compaction to change). A shared v is copied
// into a borrowed slice before the first write. Store reads the merge
// triggers are fetch time; the rest is patch time.
func mergeOverlay[T sharestore.Cell](e *Engine, t *tableView, col string, rg protocol.Range, idx []uint32, pf perm.Perm, v []T, borrowed bool, stats *protocol.Stats) ([]T, bool, error) {
	start, fetched := time.Now(), stats.FetchNS
	defer func() { stats.PatchNS += time.Since(start).Nanoseconds() - (stats.FetchNS - fetched) }()
	hits := t.delta.hits(e.view.M, col, rg, idx, pf)
	if len(hits) == 0 {
		return v, borrowed, nil
	}
	if !borrowed {
		own := cellPool[T]().Get(len(v))
		copy(own, v)
		v, borrowed = own, true
	}
	bases := make([]ownerBase[T], e.view.M)
	for j := range bases {
		bases[j] = ownerBase[T]{e: e, t: t, owner: j, col: col, stats: stats}
	}
	fail := func(err error) ([]T, bool, error) {
		release(e, v)
		return nil, false, err
	}
	for _, h := range hits {
		var acc uint64
		for j := range bases {
			b, err := bases[j].at(h.p)
			if err != nil {
				return fail(err)
			}
			acc = field.Fold(acc) + field.Fold(uint64(b))
		}
		v[h.i] = ringReduce[T](e, acc)
	}
	ring := e.view.Delta
	if sharestore.Width[T]() == 8 {
		ring = field.P
	}
	for _, h := range hits {
		b, err := bases[h.owner].at(h.p)
		if err != nil {
			return fail(err)
		}
		v[h.i] = ringReduce[T](e, uint64(v[h.i])+field.Fold(h.val)+ring-uint64(ringReduce[T](e, uint64(b))))
	}
	return v, borrowed, nil
}

// ownerBase reads one owner's base — overlay-free — cells of a column by
// stored position from one fixed version of each chunk it touches: the
// in-memory column, or on disk the chunk the epoch's cache holds, read
// on the epoch's first touch and shared by every later merge of the
// epoch.
type ownerBase[T sharestore.Cell] struct {
	e         *Engine
	t         *tableView
	owner     int
	col       string
	stats     *protocol.Stats
	cc, cells uint64 // the column's chunk grid (chunkGrid)
	chunks    [][]T  // the chunks fetched so far
}

func (b *ownerBase[T]) at(p uint64) (T, error) {
	if b.chunks == nil {
		var err error
		if b.cc, b.cells, err = chunkGrid(b.e, b.t, b.owner, b.col); err != nil {
			return 0, err
		}
		b.chunks = make([][]T, (b.cells+b.cc-1)/b.cc)
	}
	k := p / b.cc
	if b.chunks[k] == nil {
		chunk, err := baseChunk[T](b.e, b.t, b.owner, b.col, k, b.stats)
		if err != nil {
			return 0, err
		}
		b.chunks[k] = chunk
	}
	return b.chunks[k][p-k*b.cc], nil
}

// baseChunk returns chunk k of owner j's base column, shared: the whole
// column in memory (one chunk), on disk the epoch cache's copy.
func baseChunk[T sharestore.Cell](e *Engine, t *tableView, owner int, col string, k uint64, stats *protocol.Stats) ([]T, error) {
	if e.opts.Store == nil {
		return memCol[T](e, t, owner, col)
	}
	return cached(t, chunkID{colKey(owner, col), k}, stats, func() ([]T, error) {
		defer fetchTime(stats, time.Now())
		return sharestore.ReadChunk[T](e.opts.Store, t.spec.Name, slotKey(owner, t.owners[owner].slot, col), k)
	})
}

// ---- StoreDelta ----

func (e *Engine) handleStoreDelta(r protocol.StoreDeltaRequest) (any, error) {
	defer e.observeRPC("storedelta")()
	if r.Owner < 0 || r.Owner >= e.view.M {
		return nil, fmt.Errorf("server %d: owner index %d out of range [0,%d)", e.view.Index, r.Owner, e.view.M)
	}
	e.mu.RLock()
	t, ok := e.tables[r.Table]
	var spec protocol.TableSpec
	var epoch uint64
	registered := false
	if ok {
		spec, epoch = t.spec, t.epoch
		_, registered = t.owners[r.Owner]
	}
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server %d: unknown table %q", e.view.Index, r.Table)
	}
	if !registered {
		return nil, fmt.Errorf("server %d: table %q owner %d has not outsourced, nothing to update", e.view.Index, r.Table, r.Owner)
	}
	ents, n, err := e.deltaEntries(spec, &r)
	if err != nil {
		return nil, err
	}
	if len(ents) == 0 { // nothing of it is stored here (S2, membership-only table)
		return protocol.StoreDeltaReply{Epoch: epoch}, nil
	}

	// The per-table delta lock serialises sequence assignment, the log
	// append and the overlay insert, so overlay visibility implies the
	// log holds the update, in sequence order (see package comment).
	mu := e.storeLock(r.Table + "/delta")
	mu.Lock()
	defer mu.Unlock()

	e.mu.Lock()
	t.deltaSeq++
	seq := t.deltaSeq
	e.mu.Unlock()

	if e.opts.Store != nil {
		if err := e.opts.Store.AppendDeltaSeg(r.Table, seq, ents); err != nil {
			return nil, fmt.Errorf("server %d: delta log append: %w", e.view.Index, err)
		}
	}

	e.mu.Lock()
	if t.delta == nil {
		t.delta = newDeltaOverlay()
	}
	e.trackHeld(t.delta.insert(ents, seq))
	epoch = t.epoch
	entries := t.delta.entryCount()
	trigger := e.opts.DeltaMax > 0 && entries >= e.opts.DeltaMax && !t.compacting && !e.closing
	if trigger {
		e.triggered.Add(1)
	}
	e.mu.Unlock()
	mDeltaBacklog.Set(r.Table, int64(entries))

	if trigger {
		go func() { defer e.triggered.Done(); e.Compact(r.Table) }()
	}
	return protocol.StoreDeltaReply{Entries: n, Epoch: epoch}, nil
}

// deltaEntries validates an update against the registered spec and this
// server's column layout — a sparse Store: the same columns through the
// same layout rule, each parallel to its position list — and converts it
// into delta-log column entries. n is the total per-position update
// count.
func (e *Engine) deltaEntries(spec protocol.TableSpec, r *protocol.StoreDeltaRequest) ([]sharestore.DeltaCol, int, error) {
	for side, pos := range [][]uint64{r.Pos, r.VPos} {
		name := [...]string{"χ-order", "χ̄-order"}[side]
		for i, p := range pos {
			if p >= spec.B {
				return nil, 0, fmt.Errorf("server %d: delta %s position %d outside table of %d cells", e.view.Index, name, p, spec.B)
			}
			if i > 0 && pos[i-1] >= p {
				return nil, 0, fmt.Errorf("server %d: delta %s positions must be strictly ascending", e.view.Index, name)
			}
		}
	}
	req := reqCols(r.Chi, r.ChiBar, r.Sums, r.VSums, r.Cnt, r.VCnt)
	cols, in, err := e.layoutCols(spec, req, uint64(len(r.Pos)), uint64(len(r.VPos)))
	if err != nil {
		return nil, 0, err
	}
	// A Store drops columns the layout does not name; an update carrying
	// shares or positions this server does not store for the table (χ on
	// S2, counts or v-columns the table was outsourced without, an unknown
	// sum column) was built for another layout and is refused.
	if req.bytes() != in.bytes() || (!spec.HasVerify && len(r.VPos) != 0) {
		return nil, 0, fmt.Errorf("server %d: table %q update carries columns its layout here does not store", e.view.Index, spec.Name)
	}
	var ents []sharestore.DeltaCol
	n := 0
	for _, cd := range cols {
		pos := r.Pos
		if cd.bar {
			pos = r.VPos
		}
		if len(pos) == 0 {
			continue
		}
		vals := in.u64[cd.name]
		if cd.width == 2 {
			vals = widenU16(in.u16[cd.name])
		}
		ents = append(ents, sharestore.DeltaCol{Name: colKey(r.Owner, cd.name), Width: cd.width, Pos: pos, Vals: vals})
		n += len(pos)
	}
	return ents, n, nil
}

func widenU16(v []uint16) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = uint64(x)
	}
	return out
}

// ---- compaction ----

// CompactStats reports what one compaction pass absorbed.
type CompactStats struct {
	Entries int    // overlay entries folded into the base
	Files   int    // sealed delta log files deleted
	Epoch   uint64 // table epoch after the pass (0 if nothing to do)
}

// SetCompactStepHook installs a hook called at each ordering point of a
// compaction pass: "through" (after the manifest records the pass's
// CompactThrough), "patch:<col>", "cells:<col>/<k>" (between chunk k's
// new CRC and its cells), "swap" and "delete:<first-seq>" (before each
// sealed log file, named by its first sequence, goes) — and of a disk
// upload: "upload:created" (the slot's columns exist),
// "upload:window:<off>" (after each window is written),
// "upload:manifest" (after the commit) and "drop:<disk column>" (before
// each column of a slot is deleted). A non-nil error aborts the pass or
// upload at that point, leaving disk state exactly as a crash there
// would — the crash-recovery tests drive every point.
func (e *Engine) SetCompactStepHook(h func(step string) error) {
	e.stepHookMu.Lock()
	e.stepHook = h
	e.stepHookMu.Unlock()
}

// step runs the ordering-point hook (SetCompactStepHook), if any.
func (e *Engine) step(name string) error {
	e.stepHookMu.Lock()
	h := e.stepHook
	e.stepHookMu.Unlock()
	if h == nil {
		return nil
	}
	return h(name)
}

// Compact folds one table's delta overlay into its base columns:
// patch the affected base cells in place (disk) or swap in patched
// column copies (RAM), bump the table epoch, truncate the overlay to the
// entries that arrived during the pass, and delete the delta log files
// sealed at the snapshot, oldest first. Queries run concurrently
// throughout: they hold either the old snapshot (old base + full overlay) or the new one
// (patched base + truncated overlay), which are value-identical because
// overlay entries are absolute replacements, and a chunk is never read
// mid-patch. Passes are serialised per table — a call blocks behind an
// in-flight pass, so when Compact returns, every delta entry inserted
// before the call has been folded. A pass over an empty overlay is a
// no-op.
func (e *Engine) Compact(name string) (CompactStats, error) {
	var st CompactStats
	e.mu.RLock()
	t, ok := e.tables[name]
	e.mu.RUnlock()
	if !ok {
		return st, fmt.Errorf("server %d: unknown table %q", e.view.Index, name)
	}
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	passStart := time.Now()

	e.mu.Lock()
	if t.delta == nil || t.delta.entryCount() == 0 {
		e.mu.Unlock()
		return st, nil
	}
	if t.midPatch {
		e.mu.Unlock()
		return st, fmt.Errorf("server %d: table %q holds a chunk an earlier compaction left mid-patch; restart the server to roll it forward", e.view.Index, name)
	}
	t.compacting = true
	old := t.delta
	base := maps.Clone(t.owners)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		t.compacting = false
		e.mu.Unlock()
	}()

	// The snapshot and the seal share the delta lock, so no append lands
	// between them: the sealed files hold exactly the records of
	// sequence ≤ upto, and later appends open a new file.
	dmu := e.storeLock(name + "/delta")
	dmu.Lock()
	snap, upto := old.snapshot()
	var sealed []uint64
	var err error
	if e.opts.Store != nil {
		sealed, err = e.opts.Store.SealDeltaLog(name)
	}
	dmu.Unlock()
	if err != nil {
		return st, fmt.Errorf("server %d: sealing the delta log of %q: %w", e.view.Index, name, err)
	}
	byOwner := make(map[int][]string)
	var owners []int
	for cn := range snap {
		j, _, ok := splitColKey(cn)
		if !ok {
			return st, fmt.Errorf("server %d: malformed delta column %q", e.view.Index, cn)
		}
		if byOwner[j] == nil {
			owners = append(owners, j)
		}
		byOwner[j] = append(byOwner[j], cn)
	}
	sort.Ints(owners)

	disk := e.opts.Store != nil
	var patched map[int]*ownerCols
	if disk {
		// Roll-forward point: recovery finishes a chunk torn by a crash
		// from here on by replaying the records up to upto over it.
		e.mu.Lock()
		t.compactThrough = upto
		e.mu.Unlock()
		if err := e.writeManifestSnapshot(t); err != nil {
			return st, err
		}
		if err := e.step("through"); err != nil {
			return st, err
		}
		for _, j := range owners {
			n, err := e.patchOwner(t, name, j, base[j], byOwner[j], snap)
			st.Entries += n
			if err != nil {
				return st, err
			}
		}
	} else {
		for _, dc := range snap {
			st.Entries += len(dc.Pos)
		}
		// Patched RAM columns are prepared outside the engine lock (the
		// registered sets are immutable) and swapped in only if the
		// owner's registration has not changed since the snapshot.
		if patched, err = e.patchedMemCols(name, byOwner, snap, base); err != nil {
			return st, err
		}
	}

	if err := e.step("swap"); err != nil {
		return st, err
	}
	e.mu.Lock()
	for j, oc := range patched {
		if cur := t.owners[j]; cur == base[j] {
			e.trackHeld(oc.bytes() - cur.bytes())
			t.owners[j] = oc
		}
	}
	t.epoch++
	st.Epoch = t.epoch
	e.resetCache(t)
	if t.delta == old {
		nd := old.retainAfter(upto)
		e.trackHeld(nd.heldBytes() - old.heldBytes())
		t.delta = nd
	}
	t.compactThrough = 0 // every chunk is whole: the next manifest clears it
	e.mu.Unlock()

	if disk {
		// Make the new epoch durable before the sealed files go: a crash
		// in between replays them over the patched base, which is a no-op
		// (absolute values).
		if err := e.writeManifestSnapshot(t); err != nil {
			return st, err
		}
		if st.Files, err = e.deleteSealed(name, sealed); err != nil {
			return st, err
		}
	}
	mCompactions.Inc()
	mCompactionSeconds.Observe(time.Since(passStart).Seconds())
	mCompactionEntries.Add(int64(st.Entries))
	e.mu.RLock()
	backlog := 0
	if t.delta != nil {
		backlog = t.delta.entryCount()
	}
	e.mu.RUnlock()
	mDeltaBacklog.Set(name, int64(backlog))
	return st, nil
}

// deleteSealed deletes the log files a pass sealed, oldest first, and
// returns how many it deleted. An append after the seal opens a file
// named by a later sequence (a table's sequences only grow), so no
// sealed name is ever reused.
func (e *Engine) deleteSealed(name string, sealed []uint64) (int, error) {
	for n, first := range sealed {
		if err := e.step(fmt.Sprintf("delete:%d", first)); err != nil {
			return n, err
		}
		if err := e.opts.Store.DeleteDeltaLog(name, first); err != nil {
			return n, err
		}
	}
	return len(sealed), nil
}

// patchOwner patches one owner's columns of the snapshot into the store
// in place — in the owner's live slot — and returns the entries it
// folded. It holds the owner's upload lock, so a re-outsource never
// commits, and deletes the slot being patched, mid-pass, and it patches
// nothing if the owner's registration is no longer was: a re-outsource
// since the snapshot replaced those columns, and its entries with them.
// A chunk the patch leaves torn bars later passes (midPatch) until a
// restart rolls it forward.
func (e *Engine) patchOwner(t *table, name string, j int, was *ownerCols, cols []string, snap map[string]sharestore.DeltaCol) (int, error) {
	mu := e.storeLock(fmt.Sprintf("%s/%d", name, j))
	mu.Lock()
	defer mu.Unlock()
	e.mu.RLock()
	live := t.owners[j] == was
	e.mu.RUnlock()
	if !live {
		return 0, nil
	}
	sort.Strings(cols)
	n := 0
	for _, cn := range cols {
		if err := e.step("patch:" + cn); err != nil {
			return n, err
		}
		dc := snap[cn]
		_, col, _ := splitColKey(cn)
		err := e.opts.Store.PatchCellsStep(name, slotKey(j, was.slot, col), dc.Width, dc.Pos, dc.Vals, func(k uint64) error {
			return e.step(fmt.Sprintf("cells:%s/%d", cn, k))
		})
		if err != nil {
			if errors.Is(err, sharestore.ErrMidPatch) {
				e.mu.Lock()
				t.midPatch = true
				e.mu.Unlock()
			}
			return n, fmt.Errorf("server %d: compacting %s/%s: %w", e.view.Index, name, cn, err)
		}
		n += len(dc.Pos)
	}
	return n, nil
}

// patchedMemCols copies the in-memory columns the snapshot touches and
// applies the overlay values to the copies; untouched columns are shared
// with the registered sets, which are immutable. base is the owners'
// registrations the snapshot was taken against; only a registered owner
// has overlay entries.
func (e *Engine) patchedMemCols(name string, byOwner map[int][]string, snap map[string]sharestore.DeltaCol, base map[int]*ownerCols) (map[int]*ownerCols, error) {
	patched := make(map[int]*ownerCols)
	for owner, cols := range byOwner {
		src := base[owner]
		oc := &ownerCols{u16: maps.Clone(src.u16), u64: maps.Clone(src.u64)}
		patched[owner] = oc
		for _, cn := range cols {
			_, col, _ := splitColKey(cn)
			if !oc.u16.patch(col, snap[cn]) && !oc.u64.patch(col, snap[cn]) {
				return nil, fmt.Errorf("server %d: table %q owner %d missing %s column", e.view.Index, name, owner, col)
			}
		}
	}
	return patched, nil
}

// writeManifestSnapshot rewrites table t's manifest from its current
// registration state. The snapshot is taken under manifestMu, so
// concurrent writers (two owners completing uploads, a compaction pass)
// write in snapshot order and a stale view never overwrites a newer
// manifest.
func (e *Engine) writeManifestSnapshot(t *table) error {
	e.manifestMu.Lock()
	defer e.manifestMu.Unlock()
	e.mu.RLock()
	man := TableManifest{
		Version: ManifestVersion, Epoch: t.epoch, Spec: t.spec,
		CompactThrough: t.compactThrough, Group: e.opts.Group,
	}
	for j, oc := range t.owners {
		man.Owners = append(man.Owners, j)
		if oc.slot != 0 {
			if man.Slots == nil {
				man.Slots = make(map[int]int)
			}
			man.Slots[j] = oc.slot
		}
	}
	if len(t.deltaFloor) > 0 {
		man.DeltaFloor = maps.Clone(t.deltaFloor)
	}
	e.mu.RUnlock()
	sort.Ints(man.Owners)
	return e.opts.Store.WriteManifest(t.spec.Name, man)
}

// DeltaBacklog reports a table's merged-but-uncompacted delta entries
// (0 for unknown tables) — the operations gauge behind the compaction
// runbook and the -deltamax threshold.
func (e *Engine) DeltaBacklog(name string) int {
	e.mu.RLock()
	t, ok := e.tables[name]
	var d *deltaOverlay
	if ok {
		d = t.delta
	}
	e.mu.RUnlock()
	if d == nil {
		return 0
	}
	return d.entryCount()
}

// CompactAll runs Compact over every registered table (the background
// ticker's pass). Errors are joined per table name into the returned
// map; an empty map means a clean pass.
func (e *Engine) CompactAll() map[string]error {
	e.mu.RLock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	e.mu.RUnlock()
	errs := make(map[string]error)
	for _, n := range names {
		if _, err := e.Compact(n); err != nil {
			errs[n] = err
		}
	}
	return errs
}

// startCompactor launches the background compaction ticker (called from
// New when Options.CompactEvery > 0). Close stops it.
func (e *Engine) startCompactor(every time.Duration) {
	e.compactStop = make(chan struct{})
	e.compactDone = make(chan struct{})
	go func() {
		defer close(e.compactDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				e.CompactAll()
			case <-e.compactStop:
				return
			}
		}
	}()
}

// Close stops the engine's background work — the compaction ticker and
// the passes an update past DeltaMax starts (none starts once Close has
// begun; it waits for those running) — and closes the delta log files
// its store holds open. Safe to call multiple times.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closing = true
		e.mu.Unlock()
		if e.compactStop != nil {
			close(e.compactStop)
			<-e.compactDone
		}
		e.triggered.Wait()
		if e.opts.Store != nil {
			// Every record was written whole or cut off when its append
			// failed; a close on the log's local file reports nothing more.
			e.opts.Store.Close()
		}
	})
}
