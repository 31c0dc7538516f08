// Store ingest: how outsourced columns become a registered table epoch.
//
// A StoreRequest carries one window of one owner's columns. In-memory
// engines assemble windows into full-length RAM columns (a window that
// is the whole table is adopted as it is); engines with a store stream
// every window straight into pending chunked columns ("pend<owner>.*")
// and rename them into place on completion, so an upload never holds
// more than one window's cells in RAM. Either way a table epoch is
// registered only once every cell of every column has arrived — and, on
// disk, recorded in the table manifest — so queries never observe a
// half-uploaded column.
package serverengine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"prism/internal/protocol"
)

// ErrTableTooLarge rejects a Store whose table has more cells than the
// system domain. No legitimate table does — bucket-tree levels never
// exceed the leaf level — and an in-memory server would otherwise
// allocate Spec.B cells per column on an upload's first window.
var ErrTableTooLarge = errors.New("serverengine: table exceeds the system domain")

// pendingStore is one owner's in-progress upload, with the
// received windows tracked so overlapping or duplicate shards are
// rejected instead of silently overwriting cells. id is the attempt's
// UploadID — a shard from a newer attempt supersedes the whole assembly,
// so a retry after a failed upload never collides with its own stale
// windows.
type pendingStore struct {
	id      string
	spec    protocol.TableSpec
	owner   int
	oc      *ownerCols // RAM assembly; nil when streaming to disk
	got     []protocol.Range
	covered uint64
	touched time.Time // last shard arrival, for the TTL sweep
}

// uploadMark is the newest upload attempt observed for one
// (table, owner): attempts of the same epoch with a lower seq are
// stale (abandoned and already superseded) and rejected.
type uploadMark struct {
	epoch string
	seq   uint64
}

// parseUploadID splits an "<epoch>/<seq>" upload id. ok is false for
// ids that don't follow the ordered format (foreign clients); those
// fall back to plain last-attempt-supersedes semantics.
func parseUploadID(id string) (epoch string, seq uint64, ok bool) {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return id[:i], seq, true
}

// ManifestVersion is the current TableManifest format version. Version
// 0 manifests (written before the field existed) decode identically and
// are accepted by Recover; manifests from a newer format are quarantined
// rather than guessed at.
const ManifestVersion = 1

// TableManifest is the durable registration record a disk-backed server
// writes once an owner's upload completes: the table layout plus which
// owners have fully outsourced, a format version, and the registration
// epoch (bumped on every registration event, so owners probing via
// ListTables can distinguish "still served" from "re-registered since").
// Streamed shard windows live under pending column names until the
// manifest-covered rename, so a restarted server reloading from disk can
// trust every "o<j>.*" column the manifest vouches for.
type TableManifest struct {
	Version int
	Epoch   uint64
	Spec    protocol.TableSpec
	Owners  []int
	// DeltaFloor records, per owner, the highest delta-log sequence
	// superseded by a later full re-outsource: cold-boot replay skips
	// that owner's entries at or below the floor (they describe the
	// previous share stream). Absent for tables that never mixed deltas
	// with a re-outsource; older manifests decode with a nil map.
	DeltaFloor map[int]uint64 `json:",omitempty"`
	// Group is the server group that wrote the manifest. Recovery
	// quarantines a manifest from another group rather than serving its
	// shares (they cover a different domain slice). Absent in manifests
	// written by single-group deployments, which decode as group 0.
	Group int `json:",omitempty"`
}

// PendingUploads reports the number of in-progress upload
// assemblies (tests and monitoring).
func (e *Engine) PendingUploads() int {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	n := 0
	for _, byOwner := range e.pending {
		n += len(byOwner)
	}
	return n
}

func (e *Engine) handleStore(r protocol.StoreRequest) (any, error) {
	defer e.observeRPC("store")()
	if e.opts.PendingTTL > 0 {
		e.sweepPending(time.Now())
	}
	if r.Owner < 0 || r.Owner >= e.view.M {
		return nil, fmt.Errorf("server %d: owner index %d out of range [0,%d)", e.view.Index, r.Owner, e.view.M)
	}
	b := r.Spec.B
	if b > e.view.B {
		return nil, fmt.Errorf("server %d: table %q has %d cells, system domain is %d: %w", e.view.Index, r.Spec.Name, b, e.view.B, ErrTableTooLarge)
	}
	if !r.Spec.Plain && b != e.view.B {
		return nil, fmt.Errorf("server %d: table %q has %d cells, system domain is %d", e.view.Index, r.Spec.Name, b, e.view.B)
	}
	rg, err := e.window(r.Shard, b) // the cells this request carries
	if err != nil {
		return nil, err
	}
	_, in, err := e.layoutCols(r.Spec, reqCols(r.ChiAdd, r.ChiBarAdd, r.SumCols, r.VSumCols, r.CountCol, r.VCountCol), rg.Count, rg.Count)
	if err != nil {
		return nil, err
	}

	// One window at a time per (table, owner): absorbing it runs
	// outside the engine lock, and two interleaved conflicting uploads
	// from the same owner would otherwise mix their bytes on disk.
	mu := e.storeLock(fmt.Sprintf("%s/%d", r.Spec.Name, r.Owner))
	mu.Lock()
	defer mu.Unlock()

	// Reject a conflicting re-store before anything touches disk: an
	// upload for a table with a different cell count would replace the
	// owner's on-disk columns with wrong-length data while queries keep
	// serving the registered spec.
	e.mu.Lock()
	err = e.storeConflict(r.Spec)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}

	oc, covered, err := e.absorbShard(&r, rg, in)
	if err != nil {
		return nil, err
	}
	if oc == nil {
		return protocol.StoreReply{Cells: covered}, nil // more windows to come
	}
	return e.finishStore(r.Spec, r.Owner, oc)
}

// storeConflict rejects a (re-)store whose cell count disagrees with the
// registered table. Caller holds e.mu.
func (e *Engine) storeConflict(spec protocol.TableSpec) error {
	if t, ok := e.tables[spec.Name]; ok && t.spec.B != spec.B {
		return fmt.Errorf("server %d: table %q cell-count conflict", e.view.Index, spec.Name)
	}
	return nil
}

// absorbShard folds window rg of the owner's columns (in) into the
// owner's pending upload, creating it on the first window. In-memory
// engines copy the window into full-length RAM columns; engines with a
// store stream it straight into pending chunked columns so resident
// memory stays O(window) regardless of the domain. It returns the
// assembled columns once every cell has arrived (nil while incomplete),
// plus the covered cell count. Caller holds the (table, owner) store
// lock.
func (e *Engine) absorbShard(r *protocol.StoreRequest, rg protocol.Range, in *ownerCols) (*ownerCols, uint64, error) {
	st := e.opts.Store
	pendKey := func(col string) string { return pendColKey(r.Owner, col) }
	e.pendMu.Lock()
	byOwner := e.pending[r.Spec.Name]
	var p *pendingStore
	if byOwner != nil {
		p = byOwner[r.Owner]
	}
	if epoch, seq, okID := parseUploadID(r.UploadID); okID {
		// Reject stragglers of an attempt the owner already abandoned or
		// completed: over a real network, cancelled requests can still
		// execute server-side after the owner has started (or finished)
		// a retry, and must neither reset a newer assembly, re-register
		// stale columns, nor re-create a full-size assembly from a
		// duplicate of an attempt that already completed. (Attempts from
		// different epochs — an owner restart — cannot be ordered and
		// resolve last-writer-wins; colliding with a restarted owner's
		// stragglers fails that upload loudly, and its next attempt
		// succeeds once they drain.)
		marks := e.storeMarks[r.Spec.Name]
		if marks == nil {
			marks = make(map[int]uploadMark)
			e.storeMarks[r.Spec.Name] = marks
		}
		if m, have := marks[r.Owner]; have && m.epoch == epoch &&
			(seq < m.seq || (seq == m.seq && (p == nil || p.id != r.UploadID))) {
			e.pendMu.Unlock()
			return nil, 0, fmt.Errorf("server %d: table %q upload attempt %q superseded or already completed", e.view.Index, r.Spec.Name, r.UploadID)
		}
		marks[r.Owner] = uploadMark{epoch: epoch, seq: seq}
	}
	fresh := false
	var replaced *pendingStore
	if p == nil || p.id != r.UploadID {
		// First shard, or a fresh attempt superseding a stale assembly
		// left behind by a failed/cancelled upload.
		replaced = p
		p = &pendingStore{id: r.UploadID, spec: r.Spec, owner: r.Owner}
		if byOwner == nil {
			byOwner = make(map[int]*pendingStore)
			e.pending[r.Spec.Name] = byOwner
		}
		byOwner[r.Owner] = p
		fresh = true
	}
	p.touched = time.Now()
	e.pendMu.Unlock()

	if replaced != nil {
		e.trackHeld(-replaced.oc.bytes()) // superseded RAM assembly released
	}
	if !specEqual(p.spec, r.Spec) {
		return nil, 0, fmt.Errorf("server %d: table %q shard spec differs from first shard", e.view.Index, r.Spec.Name)
	}
	for _, g := range p.got {
		if rg.Offset < g.End() && g.Offset < rg.End() {
			return nil, 0, fmt.Errorf("server %d: table %q shard [%d, %d) overlaps received [%d, %d)",
				e.view.Index, r.Spec.Name, rg.Offset, rg.End(), g.Offset, g.End())
		}
	}
	switch {
	case st != nil:
		if fresh {
			// Initialise the pending chunked columns (replacing any left
			// by a superseded attempt).
			if err := createCols(st, r.Spec.Name, pendKey, e.specCols(r.Spec), r.Spec.B); err != nil {
				return nil, 0, err
			}
		}
		if err := in.writeAt(st, r.Spec.Name, pendKey, rg.Offset); err != nil {
			return nil, 0, err
		}
	case fresh && rg.Count == r.Spec.B:
		// The window is the whole table: the request's columns are the
		// assembly (blank + copy would cost a 2^18-cell, 10-owner
		// deployment 94 MB per server).
		p.oc = in
		e.trackHeld(in.bytes())
	default:
		if fresh {
			p.oc = in.blank(r.Spec.B)
			e.trackHeld(p.oc.bytes())
		}
		p.oc.copyAt(rg.Offset, in)
	}
	// Refresh the idle clock now that the window has been absorbed: a
	// slow-but-live writer whose windows take a long time to land (large
	// shards, slow disk) must not have the write time itself consume its
	// idle budget.
	e.pendMu.Lock()
	p.touched = time.Now()
	e.pendMu.Unlock()
	p.got = append(p.got, rg)
	p.covered += rg.Count
	if p.covered < r.Spec.B {
		return nil, p.covered, nil
	}

	// Complete: retire the pending entry; the caller registers the
	// columns.
	e.pendMu.Lock()
	delete(byOwner, r.Owner)
	if len(byOwner) == 0 {
		delete(e.pending, r.Spec.Name)
	}
	e.pendMu.Unlock()
	if st != nil {
		// Promote the pending columns to their live names; only now can
		// a query (or a restarted server following the manifest) see
		// them.
		for _, cd := range e.specCols(r.Spec) {
			if err := st.RenameColumn(r.Spec.Name, pendKey(cd.name), colKey(r.Owner, cd.name)); err != nil {
				return nil, 0, err
			}
		}
		return &ownerCols{onDisk: true}, p.covered, nil
	}
	e.trackHeld(-p.oc.bytes()) // hand-off: finishStore re-accounts it as a registered table
	return p.oc, p.covered, nil
}

// sweepPending reclaims upload assemblies whose last shard
// arrived more than Options.PendingTTL ago — the owner crashed or gave
// up mid-upload. RAM assemblies release their buffers; streamed
// assemblies delete their pending disk columns. Assemblies whose
// (table, owner) store lock is busy are skipped (that upload is alive).
// Returns the number of assemblies swept.
func (e *Engine) sweepPending(now time.Time) int {
	ttl := e.opts.PendingTTL
	if ttl <= 0 {
		return 0
	}
	mPendingSweeps.Inc()
	type victim struct {
		table string
		owner int
		p     *pendingStore
	}
	e.pendMu.Lock()
	var victims []victim
	for tbl, byOwner := range e.pending {
		for owner, p := range byOwner {
			if now.Sub(p.touched) > ttl {
				victims = append(victims, victim{tbl, owner, p})
			}
		}
	}
	e.pendMu.Unlock()
	swept := 0
	for _, v := range victims {
		mu := e.storeLock(fmt.Sprintf("%s/%d", v.table, v.owner))
		if !mu.TryLock() {
			continue // a live upload holds the lock; not stale after all
		}
		e.pendMu.Lock()
		cur := e.pending[v.table][v.owner]
		// Re-check the idle time under the lock: a shard that landed
		// while this sweep scanned other victims refreshed touched and
		// resets the budget.
		stale := cur == v.p && now.Sub(cur.touched) > ttl
		if stale {
			delete(e.pending[v.table], v.owner)
			if len(e.pending[v.table]) == 0 {
				delete(e.pending, v.table)
			}
		}
		e.pendMu.Unlock()
		if stale {
			e.trackHeld(-v.p.oc.bytes())
			if e.opts.Store != nil {
				e.reclaimOwnerPending(v.table, e.specCols(v.p.spec), v.owner)
			}
			swept++
		}
		mu.Unlock()
	}
	mPendingReclaimed.Add(int64(swept))
	return swept
}

// specEqual compares the table layouts of two shards.
func specEqual(a, b protocol.TableSpec) bool {
	if a.Name != b.Name || a.B != b.B || a.HasVerify != b.HasVerify ||
		a.HasCount != b.HasCount || a.Plain != b.Plain || len(a.AggCols) != len(b.AggCols) {
		return false
	}
	for i := range a.AggCols {
		if a.AggCols[i] != b.AggCols[i] {
			return false
		}
	}
	return true
}

// finishStore registers one owner's assembled columns — resident, or
// already promoted to their live names in the store — as the table's
// current epoch. Caller holds the (table, owner) store lock.
func (e *Engine) finishStore(spec protocol.TableSpec, owner int, oc *ownerCols) (any, error) {
	e.mu.Lock()
	// Re-check: a concurrent Store may have created the table while this
	// one wrote its columns unlocked.
	if err := e.storeConflict(spec); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	t, ok := e.tables[spec.Name]
	if !ok {
		t = &table{spec: spec, owners: make(map[int]*ownerCols), epoch: e.epochFloor[spec.Name]}
		e.tables[spec.Name] = t
	}
	e.trackHeld(oc.bytes() - t.owners[owner].bytes())
	t.owners[owner] = oc
	t.epoch++
	if t.delta != nil {
		// A full re-outsource replaces this owner's base wholesale: its
		// pending delta entries describe the previous share stream and
		// must not patch the new columns.
		e.trackHeld(-t.delta.dropOwner(owner))
	}
	if t.deltaSeq > 0 && e.opts.Store != nil {
		// Likewise fence the owner's on-disk delta segments out of
		// cold-boot replay (the floor is persisted in the manifest).
		if t.deltaFloor == nil {
			t.deltaFloor = make(map[int]uint64)
		}
		t.deltaFloor[owner] = t.deltaSeq
	}
	e.resetCache(t) // new table epoch: invalidate hot chunks
	e.mu.Unlock()

	if e.opts.Store != nil {
		// Durable registration record: written only after the owner's
		// columns are fully assembled and promoted to their live names.
		// The registration snapshot is taken while holding manifestMu, so
		// concurrent completions serialise snapshot-then-write in order
		// and a stale snapshot can never overwrite a newer manifest.
		if err := e.writeManifestSnapshot(spec.Name, spec); err != nil {
			return nil, err
		}
	}
	return protocol.StoreReply{Cells: spec.B}, nil
}

// storeLock returns the upload mutex for a (table, owner) key.
func (e *Engine) storeLock(key string) *sync.Mutex {
	e.storeMuMu.Lock()
	defer e.storeMuMu.Unlock()
	mu, ok := e.storeMus[key]
	if !ok {
		mu = &sync.Mutex{}
		e.storeMus[key] = mu
	}
	return mu
}

func (e *Engine) handleDrop(r protocol.DropRequest) (any, error) {
	defer e.observeRPC("drop")()
	mDeltaBacklog.Set(r.Table, 0)
	e.mu.Lock()
	if t, ok := e.tables[r.Table]; ok {
		for _, oc := range t.owners {
			e.trackHeld(-oc.bytes())
		}
		if t.cache != nil {
			t.cache.discard()
		}
		if t.delta != nil {
			e.trackHeld(-t.delta.heldBytes())
		}
		// A later re-outsource under the same name continues the epoch
		// rather than restarting it, so probes can't mistake the
		// replacement for the original registration.
		e.epochFloor[r.Table] = t.epoch
		delete(e.tables, r.Table)
	}
	e.mu.Unlock()
	e.pendMu.Lock()
	for _, p := range e.pending[r.Table] { // abandon half-assembled uploads
		e.trackHeld(-p.oc.bytes())
	}
	delete(e.pending, r.Table)
	delete(e.storeMarks, r.Table) // and reclaim its attempt marks
	e.pendMu.Unlock()
	if e.opts.Store != nil {
		// Removes live, pending and manifest files alike.
		if err := e.opts.Store.DropTable(r.Table); err != nil {
			return nil, err
		}
	}
	return protocol.DropReply{}, nil
}
