// Cold-boot validation and quarantine: the recovery half of the store.
//
// A restarted server must decide, per table directory, whether the
// columns on disk are trustworthy enough to serve. VerifyColumn checks a
// single column against the shape the table manifest promises — index
// present and sane, every chunk segment file present at its expected
// encoded size, and a CRC spot-check of the first and last chunks (a
// full CRC sweep would cost an O(b) read per boot; torn writes cluster
// at the column edges where the crash interrupted the stream, and every
// later query read re-verifies its chunks' CRCs anyway). Tables that
// fail validation are moved aside — never deleted — into a .quarantine/
// area beside the live tables, with a machine-readable reason file, so
// an operator can inspect or salvage them while the server keeps booting
// with whatever is healthy.
package sharestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// quarantineDir is the reserved directory (beside table directories)
// holding tables moved aside by recovery. sanitize diverts any table
// name starting with '.' through its hashed form, so no user table can
// collide with it.
const quarantineDir = ".quarantine"

// VerifyColumn checks a column's on-disk integrity against the shape a
// manifest promises: element width, total cells, every chunk segment
// present at its exact encoded size, and the CRC of the first and last
// chunks. It returns nil when the column is safe to serve.
func (s *Store) VerifyColumn(table, col string, width int, cells uint64) error {
	dir := s.colDir(table, col)
	s.forget(dir) // the boot check trusts the disk, not an earlier read of it
	ci, err := s.index(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("sharestore: %s/%s: %w", table, col, ErrNotFound)
	}
	if err != nil {
		return err
	}
	if ci.width != width {
		return fmt.Errorf("sharestore: %s/%s: element width %d, manifest says %d", table, col, ci.width, width)
	}
	if ci.cells != cells {
		return fmt.Errorf("sharestore: %s/%s: index holds %d cells, manifest says %d", table, col, ci.cells, cells)
	}
	info := ColumnInfo{Width: ci.width, Cells: ci.cells, ChunkCells: ci.chunkCells}
	n := info.NumChunks()
	for k := uint64(0); k < n; k++ {
		lo, hi := info.ChunkSpan(k)
		want := int64(chunkHeaderLen) + int64(hi-lo)*int64(width)
		st, err := os.Stat(chunkPath(dir, k))
		if err != nil {
			return fmt.Errorf("sharestore: %s/%s: chunk %d of %d missing: %w", table, col, k, n, err)
		}
		if st.Size() != want {
			return fmt.Errorf("sharestore: %s/%s: chunk %d is %d bytes, want %d", table, col, k, st.Size(), want)
		}
	}
	// CRC spot-check the edges (first and last chunks): a crash tears the
	// segment being written, and uploads stream windows in order.
	for _, k := range spotChunks(n) {
		if err := visitChunk(dir, ci, k, func([]byte) error { return nil }); err != nil {
			return fmt.Errorf("sharestore: %s/%s: %w", table, col, err)
		}
	}
	return nil
}

// spotChunks picks the chunk ids CRC-verified at boot: first and last.
func spotChunks(n uint64) []uint64 {
	switch {
	case n == 0:
		return nil
	case n == 1:
		return []uint64{0}
	default:
		return []uint64{0, n - 1}
	}
}

// QuarantineInfo is the machine-readable record written beside a
// quarantined table.
type QuarantineInfo struct {
	Table  string    // raw table name
	Reason string    // stable machine-readable code, e.g. "manifest-unreadable"
	Detail string    // human-readable specifics
	When   time.Time // quarantine time
}

// QuarantineTable moves a table directory (all its columns, manifest and
// sidecars) into the store's .quarantine/ area and records a reason
// file. The data is preserved for inspection, never deleted; the live
// name becomes free for a fresh outsourcing. Quarantining a table that
// does not exist is an error.
func (s *Store) QuarantineTable(table, reason, detail string) error {
	src := filepath.Join(s.dir, sanitize(table))
	defer s.forget(src)
	if _, err := os.Stat(src); err != nil {
		return fmt.Errorf("sharestore: quarantine %q: %w", table, err)
	}
	qroot := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qroot, 0o755); err != nil {
		return err
	}
	// Pick a free destination name: repeated quarantines of the same
	// table (re-outsource, corrupt again) get numbered suffixes.
	dst := filepath.Join(qroot, sanitize(table))
	for i := 2; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(qroot, fmt.Sprintf("%s-%d", sanitize(table), i))
	}
	//prism:allow atomicwrite moving the whole table directory aside is the quarantine operation itself
	if err := os.Rename(src, dst); err != nil {
		return err
	}
	info := QuarantineInfo{Table: table, Reason: reason, Detail: detail, When: time.Now().UTC()}
	raw, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dst, "quarantine.json"), raw)
}

// Quarantined lists the store's quarantined tables, oldest first.
// Entries whose reason file is unreadable still appear, with the
// directory name and an empty reason.
func (s *Store) Quarantined() ([]QuarantineInfo, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []QuarantineInfo
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var info QuarantineInfo
		raw, err := os.ReadFile(filepath.Join(s.dir, quarantineDir, e.Name(), "quarantine.json"))
		if err != nil || json.Unmarshal(raw, &info) != nil {
			info = QuarantineInfo{Table: e.Name()}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].When.Before(out[j].When) })
	return out, nil
}
