// Incremental updates: the in-RAM half of the delta layer.
//
// A StoreDelta request — one owner's whole update — carries absolute
// replacement share values for individual stored positions. Each
// accepted update is (on disk-backed engines) appended durably to the
// table's delta log as one segment first, then merged into the table's
// delta overlay — a per-column map from stored position to the newest
// value — which every fetch path consults, so queries see updates
// immediately without any base chunk being rewritten. The background compactor periodically folds the overlay
// into the base chunks (sharestore.PatchCells), bumps the table epoch,
// and deletes the absorbed delta segments oldest-first.
//
// Ordering invariant: per table, sequence assignment, the durable log
// append and the overlay insert happen under one delta lock, so when an
// update with sequence s is visible in the overlay, every update with a
// smaller sequence is too, and each is visible whole — a cell's χ
// together with its χ̄. Compaction snapshots the overlay (never the raw
// sequence counter), so it can only absorb — and only deletes — segments
// whose values it has folded into the base.
//
// Crash safety rests on segments being idempotent absolute values:
// whatever prefix of {patch chunks, bump manifest epoch, delete
// segments oldest-first} a crash permits, replaying the surviving log
// over the surviving base reproduces exactly the pre- or
// post-compaction values, never a mix of stale and fresh cells.
package serverengine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

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

// patchWindow overlays key's delta entries onto the window rg of v.
// When v is a shared slice (owned=false: an in-memory column, a cached
// chunk) it is cloned before the first patched cell; an untouched window
// is returned as-is.
func patchWindow[T sharestore.Cell](d *deltaOverlay, key string, rg protocol.Range, v []T, owned bool) []T {
	d.mu.RLock()
	defer d.mu.RUnlock()
	co := d.cols[key]
	if co == nil || len(co.cells) == 0 {
		return v
	}
	if uint64(len(co.cells)) < rg.Count {
		for p, dv := range co.cells {
			if p < rg.Offset || p >= rg.End() {
				continue
			}
			if !owned {
				v, owned = slices.Clone(v), true
			}
			v[p-rg.Offset] = T(dv.val)
		}
		return v
	}
	for p := rg.Offset; p < rg.End(); p++ {
		if dv, ok := co.cells[p]; ok {
			if !owned {
				v, owned = slices.Clone(v), true
			}
			v[p-rg.Offset] = T(dv.val)
		}
	}
	return v
}

// patchGather overlays key's delta entries onto a gathered fetch: out[i]
// holds the cell at idx[i] and is always a fresh slice, so the patch is
// in place.
func patchGather[T sharestore.Cell](d *deltaOverlay, key string, idx []uint32, out []T) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	co := d.cols[key]
	if co == nil || len(co.cells) == 0 {
		return
	}
	for i, p := range idx {
		if dv, ok := co.cells[uint64(p)]; ok {
			out[i] = T(dv.val)
		}
	}
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

	// The per-table delta lock serialises sequence assignment, the
	// durable append and the overlay insert, so overlay visibility
	// implies log durability in sequence order (see package comment).
	mu := e.storeLock(r.Table + "/delta")
	mu.Lock()
	defer mu.Unlock()

	e.mu.Lock()
	t, ok = e.tables[r.Table]
	if !ok || t.owners[r.Owner] == nil || !specEqual(t.spec, spec) {
		e.mu.Unlock()
		return nil, fmt.Errorf("server %d: table %q changed under the update", e.view.Index, r.Table)
	}
	t.deltaSeq++
	seq := t.deltaSeq
	e.mu.Unlock()

	if e.opts.Store != nil {
		if err := e.opts.Store.AppendDeltaSeg(r.Table, seq, ents); err != nil {
			return nil, fmt.Errorf("server %d: delta log append: %w", e.view.Index, err)
		}
	}

	e.mu.Lock()
	t, ok = e.tables[r.Table]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("server %d: table %q dropped under the update", e.view.Index, r.Table)
	}
	if t.delta == nil {
		t.delta = newDeltaOverlay()
	}
	e.trackHeld(t.delta.insert(ents, seq))
	epoch = t.epoch
	entries := t.delta.entryCount()
	compacting := t.compacting
	e.mu.Unlock()
	mDeltaBacklog.Set(r.Table, int64(entries))

	if e.opts.DeltaMax > 0 && entries >= e.opts.DeltaMax && !compacting {
		go e.Compact(r.Table)
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
	Entries  int    // overlay entries folded into the base
	Segments int    // delta segments deleted
	Epoch    uint64 // table epoch after the pass (0 if nothing to do)
}

// SetCompactStepHook installs a hook called before each compaction
// ordering point ("patch:<col>", "swap", "delete:<seq>"). A non-nil
// error aborts the pass at that point, leaving disk state exactly as a
// crash there would — the crash-recovery tests drive every point.
func (e *Engine) SetCompactStepHook(h func(step string) error) {
	e.compactHookMu.Lock()
	e.compactHook = h
	e.compactHookMu.Unlock()
}

func (e *Engine) compactStep(step string) error {
	e.compactHookMu.Lock()
	h := e.compactHook
	e.compactHookMu.Unlock()
	if h == nil {
		return nil
	}
	return h(step)
}

// Compact folds one table's delta overlay into its base columns:
// rewrite affected base chunks with the overlay values (disk) or swap
// in patched column copies (RAM), bump the table epoch, truncate the
// overlay to the entries that arrived during the pass, and delete the
// absorbed delta segments oldest-first. Queries run concurrently
// throughout: they hold either the old snapshot (old base + full
// overlay) or the new one (patched base + truncated overlay), which are
// value-identical because overlay entries are absolute replacements.
// Passes are serialised per table — a call blocks behind an in-flight
// pass, so when Compact returns, every delta entry inserted before the
// call has been folded. A pass over an empty overlay is a no-op.
func (e *Engine) Compact(name string) (CompactStats, error) {
	var st CompactStats
	e.mu.RLock()
	t0, ok := e.tables[name]
	e.mu.RUnlock()
	if !ok {
		return st, fmt.Errorf("server %d: unknown table %q", e.view.Index, name)
	}
	t0.compactMu.Lock()
	defer t0.compactMu.Unlock()
	passStart := time.Now()

	e.mu.Lock()
	t, ok := e.tables[name]
	if !ok || t != t0 {
		e.mu.Unlock()
		return st, nil // dropped or replaced while we waited
	}
	if t.delta == nil || t.delta.entryCount() == 0 {
		e.mu.Unlock()
		return st, nil
	}
	t.compacting = true
	spec := t.spec
	old := t.delta
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		if cur, ok := e.tables[name]; ok {
			cur.compacting = false
		}
		e.mu.Unlock()
	}()

	snap, upto := old.snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)

	disk := e.opts.Store != nil
	if disk {
		for _, cn := range names {
			if err := e.compactStep("patch:" + cn); err != nil {
				return st, err
			}
			dc := snap[cn]
			if err := e.opts.Store.PatchCells(name, cn, dc.Width, dc.Pos, dc.Vals); err != nil {
				return st, fmt.Errorf("server %d: compacting %s/%s: %w", e.view.Index, name, cn, err)
			}
			st.Entries += len(dc.Pos)
		}
	} else {
		for _, dc := range snap {
			st.Entries += len(dc.Pos)
		}
	}

	// Patched RAM columns are prepared outside the engine lock (the
	// registered sets are immutable) and swapped in only if the owner's
	// registration has not changed since the snapshot.
	var patched map[int]*ownerCols
	if !disk {
		var err error
		patched, err = e.patchedMemCols(name, snap)
		if err != nil {
			return st, err
		}
	}

	if err := e.compactStep("swap"); err != nil {
		return st, err
	}
	e.mu.Lock()
	t, ok = e.tables[name]
	if !ok || !specEqual(t.spec, spec) {
		e.mu.Unlock()
		return st, fmt.Errorf("server %d: table %q changed under compaction", e.view.Index, name)
	}
	for j, oc := range patched {
		if cur, live := t.owners[j]; live && !cur.onDisk {
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
	e.mu.Unlock()

	if disk {
		// Make the new epoch durable before the absorbed segments go: a
		// crash in between replays them over the patched base, which is a
		// no-op (absolute values).
		if err := e.writeManifestSnapshot(name, spec); err != nil {
			return st, err
		}
		segs, err := e.opts.Store.DeltaSegs(name)
		if err != nil {
			return st, err
		}
		for _, seq := range segs {
			if seq > upto {
				break // never delete a segment newer than the snapshot
			}
			if err := e.compactStep(fmt.Sprintf("delete:%d", seq)); err != nil {
				return st, err
			}
			if err := e.opts.Store.DeleteDeltaSeg(name, seq); err != nil {
				return st, err
			}
			st.Segments++
		}
	}
	mCompactions.Inc()
	mCompactionSeconds.Observe(time.Since(passStart).Seconds())
	mCompactionEntries.Add(int64(st.Entries))
	e.mu.RLock()
	if cur, ok := e.tables[name]; ok {
		backlog := 0
		if cur.delta != nil {
			backlog = cur.delta.entryCount()
		}
		mDeltaBacklog.Set(name, int64(backlog))
	}
	e.mu.RUnlock()
	return st, nil
}

// patchedMemCols copies the in-memory columns the snapshot touches and
// applies the overlay values to the copies; untouched columns are shared
// with the registered sets, which are immutable.
func (e *Engine) patchedMemCols(name string, snap map[string]sharestore.DeltaCol) (map[int]*ownerCols, error) {
	e.mu.RLock()
	t, ok := e.tables[name]
	var base map[int]*ownerCols
	if ok {
		base = maps.Clone(t.owners)
	}
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server %d: table %q dropped under compaction", e.view.Index, name)
	}
	patched := make(map[int]*ownerCols)
	for cn, dc := range snap {
		var owner int
		if _, err := fmt.Sscanf(cn, "o%d.", &owner); err != nil {
			return nil, fmt.Errorf("server %d: malformed delta column %q", e.view.Index, cn)
		}
		col := cn[strings.IndexByte(cn, '.')+1:]
		src, live := base[owner]
		if !live || src.onDisk {
			continue // owner dropped or on disk; nothing to patch in RAM
		}
		oc := patched[owner]
		if oc == nil {
			oc = &ownerCols{u16: maps.Clone(src.u16), u64: maps.Clone(src.u64)}
			patched[owner] = oc
		}
		if !oc.u16.patch(col, dc) && !oc.u64.patch(col, dc) {
			return nil, fmt.Errorf("server %d: table %q owner %d missing %s column", e.view.Index, name, owner, col)
		}
	}
	return patched, nil
}

// writeManifestSnapshot rewrites a table's manifest from the current
// registration state — the same snapshot-under-manifestMu ordering
// finishStore uses, so concurrent completions can never be overwritten
// by a stale view.
func (e *Engine) writeManifestSnapshot(name string, spec protocol.TableSpec) error {
	e.manifestMu.Lock()
	defer e.manifestMu.Unlock()
	var owners []int
	var epoch uint64
	var floor map[int]uint64
	e.mu.RLock()
	cur, ok := e.tables[name]
	if ok {
		for j := range cur.owners {
			owners = append(owners, j)
		}
		epoch = cur.epoch
		if len(cur.deltaFloor) > 0 {
			floor = make(map[int]uint64, len(cur.deltaFloor))
			for j, s := range cur.deltaFloor {
				floor[j] = s
			}
		}
	}
	e.mu.RUnlock()
	if !ok {
		return nil // concurrently dropped; DropTable removed the dir
	}
	sort.Ints(owners)
	return e.opts.Store.WriteManifest(name, TableManifest{
		Version: ManifestVersion, Epoch: epoch, Spec: spec, Owners: owners, DeltaFloor: floor,
		Group: e.opts.Group,
	})
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

// Close stops the engine's background work (the compaction ticker).
// Safe to call multiple times and on engines that never started one.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.compactStop != nil {
			close(e.compactStop)
			<-e.compactDone
		}
	})
}
