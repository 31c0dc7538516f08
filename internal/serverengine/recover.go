// Cold-boot recovery: a restarted disk-backed server reloads its
// serving state from the share store's table manifests instead of
// booting empty and forcing every owner to re-outsource.
//
// The recovery state machine, per table directory found in the store:
//
//  1. No manifest → debris, or a directory from before manifests
//     existed: left in place, reported as ignored, never served and
//     never deleted.
//  2. Manifest unreadable, from a newer format version, naming a
//     different table, disagreeing with the system domain, or listing
//     impossible owners → the whole table is quarantined (moved under
//     .quarantine/ with a machine-readable reason, data preserved).
//  3. Every manifest-listed owner's columns are validated against the
//     spec-derived layout: element width, cell count, chunk count, and
//     a CRC spot-check of the edge chunks. Any failure quarantines the
//     table — a corrupt column is never served and never crashes boot.
//  4. An owner IN the manifest with pending columns was re-outsourcing.
//     Pending columns are created and promoted in layout order, so while
//     the first column's pending copy exists no live column has been
//     replaced: the registered epoch keeps serving and the assembly is
//     reclaimed. Once it is gone the promotion had begun, every column
//     being fully assembled: recovery finishes the renames and fences
//     the owner's older delta segments, so the owner serves the new
//     epoch whole — never a mix of the two.
//     Owners NOT in the manifest are classified by what their columns
//     look like:
//     - only pending ("pend<j>.*") columns → the owner crashed
//     mid-upload; the received-window bookkeeping died with the old
//     process, so the assembly cannot be resumed and is reclaimed
//     (pending columns deleted; the owner's retry starts clean).
//     - a mix of live and pending columns (or all live, manifest write
//     lost) → the server crashed mid-promotion. Promotion only starts
//     once every cell of every column has arrived, so each column is
//     complete on exactly one side; recovery verifies each side,
//     finishes the renames, and adopts the owner into the manifest
//     (epoch bumped, manifest rewritten durably).
//     - anything else (a column missing on both sides, a corrupt half)
//     → quarantined as a partial promotion.
//  5. Surviving tables are registered into the serving path exactly as
//     a live registration would: on-disk owner column sets (zero held
//     bytes), a cold hot-chunk cache, and the manifest's epoch.
//
// Recovery is idempotent — tables already registered are skipped — and
// per-table failures never abort the scan: the server boots with
// whatever is healthy and the RecoveryReport says what happened to the
// rest.
package serverengine

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"prism/internal/protocol"
)

// RecoveredTable describes one table Recover re-registered.
type RecoveredTable struct {
	Name   string
	Spec   protocol.TableSpec
	Owners []int
	Epoch  uint64
	// Adopted lists owners whose interrupted promotion was completed
	// during recovery (crash between the pending-column renames and the
	// manifest write); empty for clean restarts.
	Adopted []int
}

// QuarantinedTable describes one table Recover moved aside.
type QuarantinedTable struct {
	Name   string
	Reason string // stable machine-readable code
	Detail string
}

// RecoveryReport is the outcome of one Recover pass.
type RecoveryReport struct {
	Recovered   []RecoveredTable
	Quarantined []QuarantinedTable
	// Ignored lists directories left untouched and unserved: directories
	// without a manifest, and manifests listing no completed owner.
	Ignored []string
	// PendingReclaimed counts crashed mid-upload assemblies whose pending
	// columns were deleted (one per table/owner pair).
	PendingReclaimed int
}

// Recover scans the share store, validates each table's manifest against
// the chunk indexes actually on disk, and re-registers every complete
// table into the serving path — a restarted server resumes serving
// without any owner re-outsourcing. Corrupt or partially-promoted tables
// are quarantined with a machine-readable reason rather than served;
// crashed mid-upload assemblies are reclaimed; interrupted promotions
// are resumed and adopted. The returned error reports store-level I/O
// failures only — per-table problems are in the report.
func (e *Engine) Recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	if e.opts.Store == nil {
		return rep, errors.New("serverengine: recovery needs a disk-backed store")
	}
	names, err := e.opts.Store.Tables()
	if err != nil {
		return rep, fmt.Errorf("serverengine: recovery scan: %w", err)
	}
	var errs []error
	for _, name := range names {
		if err := e.recoverTable(name, rep); err != nil {
			errs = append(errs, fmt.Errorf("table %q: %w", name, err))
		}
	}
	return rep, errors.Join(errs...)
}

// recoverTable runs the state machine above for one table directory.
// The returned error reports I/O failures (rename/manifest writes);
// validation failures quarantine and return nil.
func (e *Engine) recoverTable(name string, rep *RecoveryReport) error {
	st := e.opts.Store
	e.mu.RLock()
	_, serving := e.tables[name]
	e.mu.RUnlock()
	if serving {
		return nil // already registered (Recover re-run, or raced a Store)
	}

	var man TableManifest
	if err := st.ReadManifest(name, &man); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			rep.Ignored = append(rep.Ignored, name) // no manifest: not a table
			return nil
		}
		e.quarantine(rep, name, "manifest-unreadable", err.Error())
		return nil
	}
	if man.Version > ManifestVersion {
		e.quarantine(rep, name, "manifest-version-unsupported",
			fmt.Sprintf("manifest version %d, this server understands <= %d", man.Version, ManifestVersion))
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

	cols := e.specCols(man.Spec)

	// Manifest-covered owners: every column must be present and clean.
	for _, j := range man.Owners {
		for _, cd := range cols {
			if err := st.VerifyColumn(name, colKey(j, cd.name), cd.width, man.Spec.B); err != nil {
				e.quarantine(rep, name, "column-corrupt", err.Error())
				return nil
			}
		}
	}

	// Resume interrupted promotions, reclaim crashed uploads, quarantine
	// inconsistent leftovers.
	owners := append([]int(nil), man.Owners...)
	var adopted, reoutsourced []int
	for j := 0; j < e.view.M; j++ {
		liveN, pendN := 0, 0
		for _, cd := range cols {
			if st.HasColumn(name, colKey(j, cd.name)) {
				liveN++
			}
			if st.HasColumn(name, pendColKey(j, cd.name)) {
				pendN++
			}
		}
		// The first column is created first and promoted first.
		promoting := pendN > 0 && !st.HasColumn(name, pendColKey(j, cols[0].name))
		switch {
		case liveN == 0 && pendN == 0:
			// Owner never uploaded (or was reclaimed before): nothing to do.
		case liveN == 0, seen[j] && !promoting:
			// Crashed mid-upload: the received-window bookkeeping is gone,
			// so the assembly cannot be resumed. A registered owner's
			// epoch keeps serving, none of its columns replaced yet.
			rep.PendingReclaimed += e.reclaimOwnerPending(name, cols, j)
		default:
			// Promotion had begun, so every column was fully assembled:
			// verify each side and finish the renames.
			if reason, detail, err := e.resumePromotion(name, cols, man.Spec.B, j); err != nil {
				return err
			} else if reason != "" {
				e.quarantine(rep, name, reason, detail)
				return nil
			}
			e.reclaimOwnerPending(name, cols, j) // duplicates the renames skipped
			if seen[j] {
				reoutsourced = append(reoutsourced, j)
			} else {
				owners = append(owners, j)
			}
			adopted = append(adopted, j)
		}
	}
	if len(owners) == 0 {
		rep.Ignored = append(rep.Ignored, name) // manifest lists no completed owner
		return nil
	}
	sort.Ints(owners)
	epoch := man.Epoch
	if len(adopted) > 0 {
		epoch++
	}

	// Replay the delta log: validate and merge every surviving segment
	// into a fresh overlay, in sequence order, exactly as the live
	// StoreDelta path built it. Sequence gaps are legal (an unacked
	// append), but a torn or corrupt segment quarantines the table like
	// a torn chunk, and so does a segment naming a column outside the
	// manifest layout or a position outside the domain. Entries at or
	// below an owner's re-outsource floor describe a superseded share
	// stream and are skipped.
	segs, err := st.DeltaSegs(name)
	if err != nil {
		return err
	}
	if len(reoutsourced) > 0 && len(segs) > 0 {
		if man.DeltaFloor == nil {
			man.DeltaFloor = make(map[int]uint64)
		}
		for _, j := range reoutsourced {
			man.DeltaFloor[j] = segs[len(segs)-1] // every segment predates the new base
		}
	}
	var overlay *deltaOverlay
	var deltaSeq uint64
	colDefs := make(map[string]colDef, len(owners)*len(cols))
	colOwner := make(map[string]int, len(owners)*len(cols))
	for _, j := range owners {
		for _, cd := range cols {
			k := colKey(j, cd.name)
			colDefs[k] = cd
			colOwner[k] = j
		}
	}
	for _, seq := range segs {
		dcs, rerr := st.ReadDeltaSeg(name, seq)
		if rerr != nil {
			e.quarantine(rep, name, "delta-corrupt", rerr.Error())
			return nil
		}
		keep := dcs[:0]
		for _, dc := range dcs {
			cd, known := colDefs[dc.Name]
			if !known || cd.width != dc.Width {
				e.quarantine(rep, name, "delta-invalid",
					fmt.Sprintf("segment d%d references column %q (width %d) outside the table layout", seq, dc.Name, dc.Width))
				return nil
			}
			for _, p := range dc.Pos {
				if p >= man.Spec.B {
					e.quarantine(rep, name, "delta-invalid",
						fmt.Sprintf("segment d%d column %q position %d outside domain of %d cells", seq, dc.Name, p, man.Spec.B))
					return nil
				}
			}
			if man.DeltaFloor[colOwner[dc.Name]] >= seq {
				continue
			}
			keep = append(keep, dc)
		}
		if len(keep) > 0 {
			if overlay == nil {
				overlay = newDeltaOverlay()
			}
			overlay.insert(keep, seq)
		}
		deltaSeq = seq
	}
	for _, f := range man.DeltaFloor {
		if f > deltaSeq {
			deltaSeq = f
		}
	}

	// Register: identical to a live registration — on-disk column sets
	// (zero held bytes), a cold cache, the durable epoch, the replayed
	// delta overlay.
	e.mu.Lock()
	if _, exists := e.tables[name]; exists {
		e.mu.Unlock()
		return nil // raced with a live Store; the live registration wins
	}
	if f := e.epochFloor[name]; f > epoch {
		epoch = f // a drop in this process outran the manifest on disk
	}
	t := &table{spec: man.Spec, owners: make(map[int]*ownerCols, len(owners)), epoch: epoch, deltaSeq: deltaSeq}
	for _, j := range owners {
		t.owners[j] = &ownerCols{onDisk: true}
	}
	if overlay != nil {
		t.delta = overlay
		e.trackHeld(overlay.heldBytes())
	}
	if len(man.DeltaFloor) > 0 {
		t.deltaFloor = make(map[int]uint64, len(man.DeltaFloor))
		for j, s := range man.DeltaFloor {
			t.deltaFloor[j] = s
		}
	}
	e.resetCache(t)
	e.tables[name] = t
	e.mu.Unlock()

	if len(adopted) > 0 {
		// Make the adoption durable so the next restart trusts the
		// promoted columns directly. The registration snapshot is re-taken
		// while holding manifestMu — the same ordering finishStore uses —
		// so a registration racing this Recover (a live upload completing
		// on a running engine) can never be overwritten by a stale view.
		if err := e.writeManifestSnapshot(name, man.Spec); err != nil {
			return err
		}
	}
	rep.Recovered = append(rep.Recovered, RecoveredTable{
		Name: name, Spec: man.Spec, Owners: owners, Epoch: epoch, Adopted: adopted,
	})
	return nil
}

// resumePromotion completes an interrupted pending→live rename sweep for
// one owner. Each column must be complete on one side: pending, fully
// assembled and not yet promoted (over the previous epoch's live column,
// when the owner was re-outsourcing), or else live; the pending side is
// verified before it is renamed. A non-empty reason means the table must
// be quarantined; err reports I/O failures.
func (e *Engine) resumePromotion(name string, cols []colDef, b uint64, owner int) (reason, detail string, err error) {
	st := e.opts.Store
	for _, cd := range cols {
		live, pend := colKey(owner, cd.name), pendColKey(owner, cd.name)
		switch {
		case st.HasColumn(name, pend):
			if verr := st.VerifyColumn(name, pend, cd.width, b); verr != nil {
				return "partial-promotion", verr.Error(), nil
			}
			if rerr := st.RenameColumn(name, pend, live); rerr != nil {
				return "", "", rerr
			}
		case st.HasColumn(name, live):
			if verr := st.VerifyColumn(name, live, cd.width, b); verr != nil {
				return "partial-promotion", verr.Error(), nil
			}
		default:
			return "partial-promotion",
				fmt.Sprintf("owner %d column %s missing in both live and pending form", owner, cd.name), nil
		}
	}
	return "", "", nil
}

// reclaimOwnerPending deletes one owner's pending upload columns,
// returning 1 if any existed (one reclaimed assembly), else 0.
func (e *Engine) reclaimOwnerPending(name string, cols []colDef, owner int) int {
	st := e.opts.Store
	had := 0
	for _, cd := range cols {
		key := pendColKey(owner, cd.name)
		if st.HasColumn(name, key) {
			had = 1
		}
		st.DeleteColumn(name, key) // best-effort; missing is not an error
	}
	return had
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
