// Cold-boot recovery: a restarted disk-backed server reloads its
// serving state from the share store's table manifests instead of
// booting empty and forcing every owner to re-outsource.
//
// First the store epoch: every table directory's manifest must carry
// ManifestVersion. A manifest of any other version — every layout an
// earlier build wrote carries a lower one — refuses the whole store with
// ErrStoreEpoch before any table's delta log is read or any file is
// moved, truncated or deleted, and the server does not start.
//
// Then the recovery state machine, per table directory:
//
//  1. No manifest → debris: left in place, reported as ignored, never
//     served and never deleted.
//  2. Manifest unreadable, naming a different table or server group,
//     disagreeing with the system domain, listing impossible owners or
//     naming a live slot for an owner it does not list → the whole table
//     is quarantined (moved under .quarantine/ with a machine-readable
//     reason, data preserved).
//  3. The delta log is read once (sharestore.ReadDeltaLog, which cuts
//     off a torn last record); a log that cannot be read otherwise
//     quarantines the table. It is replayed once, into the overlay the
//     table is served with; a record naming a column or position outside
//     the layout quarantines the table. A manifest with CompactThrough
//     set was written by a compaction pass that never reached its
//     post-swap manifest write: chunks it patched in place may be torn.
//     When the replay passes CompactThrough, the overlay's snapshot rolls
//     them forward (sharestore.RollForward); a chunk it cannot make whole
//     quarantines the table.
//     Then every manifest-listed owner's columns in its live slot
//     (TableManifest.Slots) are validated against the spec-derived
//     layout: element width, cell count, chunk count, and a CRC
//     spot-check of the edge chunks. Any failure quarantines the table —
//     a corrupt column is never served and never crashes boot.
//  4. Every other column is an upload that never reached its commit
//     point, the manifest write naming its slot live — StoreReply is sent
//     only after that write, so no owner was told it landed — or the
//     slot a committed upload kept for its previous epoch's snapshots:
//     it is reclaimed.
//  5. Surviving tables are registered into the serving path exactly as
//     a live registration would: on-disk owner column sets (zero held
//     bytes), a cold epoch cache, and the manifest's epoch.
//
// New runs the scan once, on every disk-backed engine, before the
// engine answers a request; registering what the store holds is what
// lets a later re-outsource fence the earlier process's delta records
// and continue its sequence. Past the epoch check, per-table failures
// never abort the scan: the server boots with whatever is healthy and
// the RecoveryReport says what happened to the rest.
package serverengine

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"slices"
	"sort"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// RecoveredTable describes one table recovery re-registered.
type RecoveredTable struct {
	Name   string
	Spec   protocol.TableSpec
	Owners []int
	Epoch  uint64
}

// QuarantinedTable describes one table recovery moved aside.
type QuarantinedTable struct {
	Name   string
	Reason string // stable machine-readable code
	Detail string
}

// RecoveryReport is the outcome of the store scan New ran; empty when
// the store was refused with ErrStoreEpoch.
type RecoveryReport struct {
	Recovered   []RecoveredTable
	Quarantined []QuarantinedTable
	// Ignored lists directories left untouched and unserved: directories
	// without a manifest, and manifests listing no completed owner.
	Ignored []string
	// PendingReclaimed counts the (table, owner) pairs whose columns
	// outside the live slot — a crashed upload, or the slot a committed
	// upload kept for its previous epoch — were deleted.
	PendingReclaimed int
}

// ErrStoreEpoch refuses a share store written in another format epoch:
// a table manifest whose version is not ManifestVersion. The error
// names the table and both versions. Recovery returns it before it
// reads further or changes anything, so the store stays as the build
// that wrote it left it.
var ErrStoreEpoch = errors.New("serverengine: share store from another format epoch")

// recoverStore scans the share store, validates each table's manifest
// against the chunk indexes actually on disk, and re-registers every
// complete table into the serving path — a restarted server resumes
// serving without any owner re-outsourcing. Corrupt tables are
// quarantined with a machine-readable reason rather than served;
// uncommitted uploads are reclaimed. The returned error is ErrStoreEpoch
// — every manifest is read first, and one of another version refuses
// the store untouched, so boot fails — or a store-level I/O failure;
// every other per-table problem is in the report.
func (e *Engine) recoverStore() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	st := e.opts.Store
	names, err := st.Tables()
	if err != nil {
		return rep, fmt.Errorf("serverengine: recovery scan: %w", err)
	}
	mans := make([]TableManifest, len(names))
	readErrs := make([]error, len(names))
	var errs []error
	for i, name := range names {
		readErrs[i] = st.ReadManifest(name, &mans[i])
		if v := mans[i].Version; readErrs[i] == nil && v != ManifestVersion {
			errs = append(errs, fmt.Errorf("%w: table %q has manifest version %d, this build reads version %d only; move the store aside and have the owners re-outsource into an empty one",
				ErrStoreEpoch, name, v, ManifestVersion))
		}
	}
	if len(errs) > 0 {
		return rep, errors.Join(errs...)
	}
	for i, name := range names {
		if err := e.recoverTable(name, &mans[i], readErrs[i], rep); err != nil {
			errs = append(errs, fmt.Errorf("table %q: %w", name, err))
		}
	}
	return rep, errors.Join(errs...)
}

// recoverTable runs the state machine above for one table directory,
// given its manifest of this epoch or the error reading it. The returned
// error reports I/O failures (the delta log read, manifest writes);
// validation failures quarantine and return nil.
func (e *Engine) recoverTable(name string, man *TableManifest, readErr error, rep *RecoveryReport) error {
	st := e.opts.Store
	if errors.Is(readErr, fs.ErrNotExist) {
		rep.Ignored = append(rep.Ignored, name) // no manifest: not a table
		return nil
	}
	if readErr != nil {
		e.quarantine(rep, name, "manifest-unreadable", readErr.Error())
		return nil
	}
	if man.Spec.Name != name {
		e.quarantine(rep, name, "manifest-name-mismatch",
			fmt.Sprintf("directory holds table %q but manifest describes %q", name, man.Spec.Name))
		return nil
	}
	if man.Spec.B == 0 || (!man.Spec.Plain && man.Spec.B != e.view.B) {
		e.quarantine(rep, name, "domain-mismatch",
			fmt.Sprintf("manifest table has %d cells, system domain is %d", man.Spec.B, e.view.B))
		return nil
	}
	if man.Group != e.opts.Group {
		e.quarantine(rep, name, "group-mismatch",
			fmt.Sprintf("manifest written by server group %d, this server serves group %d", man.Group, e.opts.Group))
		return nil
	}
	seen := make(map[int]bool, len(man.Owners))
	for _, j := range man.Owners {
		if j < 0 || j >= e.view.M || seen[j] {
			e.quarantine(rep, name, "owner-out-of-range",
				fmt.Sprintf("manifest owner %d invalid for m=%d", j, e.view.M))
			return nil
		}
		seen[j] = true
	}
	for j, slot := range man.Slots {
		if !seen[j] || slot < 0 || slot > 1 {
			e.quarantine(rep, name, "slot-invalid",
				fmt.Sprintf("manifest names slot %d live for owner %d, listed owners %v", slot, j, man.Owners))
			return nil
		}
	}

	cols := e.specCols(man.Spec)

	// The delta log, read once. A manifest listing no owner has no column
	// a record could patch: its log is not replayed.
	recs, err := st.ReadDeltaLog(name)
	if errors.Is(err, sharestore.ErrDeltaCorrupt) {
		e.quarantine(rep, name, "delta-corrupt", err.Error())
		return nil
	}
	if err != nil {
		return err
	}
	if len(man.Owners) == 0 {
		recs = nil
	}

	// Replay the delta log: validate and merge every record into a fresh
	// overlay, in sequence order, exactly as the live StoreDelta path
	// built it. Sequence gaps are legal (an unacked append), but a record
	// naming a column outside the manifest layout or a position outside
	// the domain quarantines the table. Entries at or below an owner's
	// re-outsource floor describe a superseded share stream and are
	// skipped. A compaction pass that ended before its post-swap manifest
	// write may have left chunks torn between their new CRC and their
	// cells; once the replay has passed CompactThrough the overlay holds
	// the values that pass was writing, and sharestore.RollForward
	// rewrites from them only the chunks whose CRC says they are torn,
	// before any column is verified. A chunk the values cannot make whole
	// is corruption the pass did not cause.
	var overlay *deltaOverlay
	var deltaSeq uint64
	colDefs := make(map[string]colDef, len(man.Owners)*len(cols))
	for _, j := range man.Owners {
		for _, cd := range cols {
			colDefs[colKey(j, cd.name)] = cd
		}
	}
	cut := sort.Search(len(recs), func(i int) bool { return recs[i].Seq > man.CompactThrough })
	for half, part := range [2][]sharestore.DeltaRecord{recs[:cut], recs[cut:]} {
		if half == 1 && man.CompactThrough > 0 && overlay != nil {
			snap, _ := overlay.snapshot()
			for cn, dc := range snap {
				j, col, _ := splitColKey(cn)
				if err := st.RollForward(name, slotKey(j, man.Slots[j], col), dc.Width, dc.Pos, dc.Vals); err != nil {
					e.quarantine(rep, name, "column-corrupt", err.Error())
					return nil
				}
			}
		}
		for _, r := range part {
			var keep []sharestore.DeltaCol
			for _, dc := range r.Cols {
				cd, known := colDefs[dc.Name]
				if !known || cd.width != dc.Width {
					e.quarantine(rep, name, "delta-invalid",
						fmt.Sprintf("record %d references column %q (width %d) outside the table layout", r.Seq, dc.Name, dc.Width))
					return nil
				}
				for _, p := range dc.Pos {
					if p >= man.Spec.B {
						e.quarantine(rep, name, "delta-invalid",
							fmt.Sprintf("record %d column %q position %d outside domain of %d cells", r.Seq, dc.Name, p, man.Spec.B))
						return nil
					}
				}
				if j, _, _ := splitColKey(dc.Name); man.DeltaFloor[j] < r.Seq {
					keep = append(keep, dc)
				}
			}
			if len(keep) > 0 {
				if overlay == nil {
					overlay = newDeltaOverlay()
				}
				overlay.insert(keep, r.Seq)
			}
			deltaSeq = r.Seq
		}
	}
	for _, f := range man.DeltaFloor {
		deltaSeq = max(deltaSeq, f)
	}

	// Listed owners: every column of the live slot must be present and
	// clean.
	for _, j := range man.Owners {
		for _, cd := range cols {
			if err := st.VerifyColumn(name, slotKey(j, man.Slots[j], cd.name), cd.width, man.Spec.B); err != nil {
				e.quarantine(rep, name, "column-corrupt", err.Error())
				return nil
			}
		}
	}

	// Reclaim every column outside a listed owner's live slot —
	// best-effort: a column a failed delete leaves is never served, and
	// the next upload into its slot or the next boot deletes it.
	for j := 0; j < e.view.M; j++ {
		reclaimed := false
		for slot := 0; slot < 2; slot++ {
			if seen[j] && slot == man.Slots[j] {
				continue
			}
			dropped, _ := e.dropSlot(name, j, slot, cols)
			reclaimed = reclaimed || dropped
		}
		if reclaimed {
			rep.PendingReclaimed++
		}
	}
	if len(man.Owners) == 0 {
		rep.Ignored = append(rep.Ignored, name) // manifest lists no completed owner
		return nil
	}
	owners := slices.Clone(man.Owners)
	slices.Sort(owners)

	// Register: identical to a live registration — on-disk column sets
	// (zero held bytes), a cold cache, the durable epoch, the replayed
	// delta overlay.
	e.mu.Lock()
	t := &table{spec: man.Spec, owners: make(map[int]*ownerCols, len(owners)), epoch: man.Epoch,
		deltaSeq: deltaSeq, deltaFloor: maps.Clone(man.DeltaFloor)}
	for _, j := range owners {
		t.owners[j] = &ownerCols{slot: man.Slots[j]}
	}
	if overlay != nil {
		t.delta = overlay
		e.trackHeld(overlay.heldBytes())
	}
	e.resetCache(t)
	e.tables[name] = t
	e.mu.Unlock()

	if man.CompactThrough > 0 {
		// Clear a CompactThrough whose chunks are whole again.
		if err := e.writeManifestSnapshot(t); err != nil {
			return err
		}
	}
	rep.Recovered = append(rep.Recovered, RecoveredTable{
		Name: name, Spec: man.Spec, Owners: owners, Epoch: man.Epoch,
	})
	return nil
}

// quarantine moves a failing table aside and records it in the report.
// A failed move is still reported — the table stays on disk but is never
// registered, so it cannot be served either way.
func (e *Engine) quarantine(rep *RecoveryReport, table, reason, detail string) {
	if err := e.opts.Store.QuarantineTable(table, reason, detail); err != nil {
		detail = fmt.Sprintf("%s (quarantine move failed: %v)", detail, err)
	}
	rep.Quarantined = append(rep.Quarantined, QuarantinedTable{Name: table, Reason: reason, Detail: detail})
}
