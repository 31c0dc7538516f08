// Package sharestore is the server-side persistent column store for
// secret shares. The paper's servers keep the outsourced Table-11 columns
// in a database and Figure 3 reports a distinct "data fetch time"; this
// package makes that a real disk read rather than a mock.
//
// Layout: one directory per table, one chunked column (see segstore.go)
// per stored column — fixed-size chunk segments with a per-chunk CRC
// plus a small chunk index, so windows of a column can be read and
// patched without touching the rest. That is the only column format: a
// "<col>.col" file left by a build that predates it is not a column
// (Stat reports ErrNotFound) and its table must be re-outsourced. Cells
// are uint16 (additive shares mod δ) or uint64 (Shamir shares in F_p);
// the typed API is generic over Cell and the width enters only where
// segstore.go calls levec.Put/Get at Width[T](). A JSON manifest per table
// records the protocol.TableSpec, the set of completed owners, which
// column names hold each owner's live columns and a monotonically
// increasing registration epoch; the manifest is written atomically only
// after an owner's columns are complete, so it is the durable
// registration record a restarted server trusts when reloading its
// serving state (see the serverengine recovery path). Columns are never
// renamed: the manifest write is an upload's commit point. A sidecar
// file records the raw table name so listings are not limited to
// sanitised directory names.
//
// Recovery support (verify.go): VerifyColumn checks a column's on-disk
// shape and CRCs against what a manifest promises, and QuarantineTable
// moves a failing table — data preserved, never deleted — into the
// store's reserved .quarantine/ area beside the live tables, with a
// machine-readable reason file (QuarantineInfo) an operator can read
// back through Quarantined. Table names are sanitised such that no user
// table can collide with the quarantine area: any name starting with
// '.' is diverted through the hashed form, and Tables skips dot-prefixed
// directories.
package sharestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// formatVersion is the version byte of chunk, index and delta log
// records.
const formatVersion = 2

// Store is a column store rooted at a directory.
type Store struct {
	dir        string
	chunkCells uint64 // chunk size (cells) for newly created columns
	idxMu      sync.Mutex
	idx        map[string]chunkIndex // column dir → its index file, read once (see index)
	colMus     sync.Map              // column dir → *sync.RWMutex (see colLock)
	logMu      sync.Mutex            // guards logs and serialises every delta log write and read
	logs       map[string]*deltaLog  // table dir → its active delta log file (see AppendDeltaSeg)
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sharestore: %w", err)
	}
	return &Store{dir: dir, chunkCells: DefaultChunkCells, idx: make(map[string]chunkIndex), logs: make(map[string]*deltaLog)}, nil
}

// Dir returns the root directory.
func (s *Store) Dir() string { return s.dir }

// sanitize keeps table/column names filesystem-safe and injective:
// names built only from safe characters map to themselves, and any name
// that needs rewriting gets a short hash of the raw name appended, so
// two distinct names (e.g. "a/b" and "a_b") can never share an on-disk
// path and silently cross-clobber each other's columns. Safe names that
// already end in the "-xxxxxxxx" hash suffix are diverted through the
// hashed form as well — otherwise the safe name "a_b-<crc of a/b>"
// would collide with the rewritten "a/b". Names starting with '.' are
// also diverted: dot-prefixed directories are reserved for store
// metadata (the .quarantine/ area), and Tables skips them.
func sanitize(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	if mapped == name && name != "" && name[0] != '.' && !looksHashed(name) {
		return name
	}
	if len(mapped) > 0 && mapped[0] == '.' {
		mapped = "_" + mapped[1:]
	}
	return fmt.Sprintf("%s-%08x", mapped, crc32.ChecksumIEEE([]byte(name)))
}

// looksHashed reports whether name ends in sanitize's "-xxxxxxxx"
// suffix form.
func looksHashed(name string) bool {
	if len(name) < 9 || name[len(name)-9] != '-' {
		return false
	}
	for _, c := range name[len(name)-8:] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// atomicWriteFile is the blessed single-file durability primitive:
// every live store file (chunk, index, manifest, sidecar) must be
// replaced through it. It stages the contents under a
// sibling .tmp name and renames into place, so at every crash point
// the live path holds either the complete previous contents or the
// complete new ones — never a torn mix. The writes into a live file
// where it lies are compaction's patchChunk and the delta log's
// appendDeltaRecord. The prism-vet atomicwrite
// analyzer enforces that no other sharestore code calls
// os.Create/os.WriteFile/os.Rename directly, or writes a file it opened.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) // best-effort cleanup; the error to surface is the rename's
		return err
	}
	return nil
}

// WriteU16 persists a whole uint16 column; see Write.
func (s *Store) WriteU16(table, col string, data []uint16) error { return Write(s, table, col, data) }

// WriteU64 persists a whole uint64 column; see Write.
func (s *Store) WriteU64(table, col string, data []uint64) error { return Write(s, table, col, data) }

// ReadU16Range loads cells [off, off+count) of a uint16 column; see
// ReadRange.
func (s *Store) ReadU16Range(table, col string, off, count uint64) ([]uint16, error) {
	return ReadRange[uint16](s, table, col, off, count)
}

// ReadU64Range loads cells [off, off+count) of a uint64 column; see
// ReadRange.
func (s *Store) ReadU64Range(table, col string, off, count uint64) ([]uint64, error) {
	return ReadRange[uint64](s, table, col, off, count)
}

// HasColumn reports whether the column exists.
func (s *Store) HasColumn(table, col string) bool {
	_, err := os.Stat(filepath.Join(s.colDir(table, col), "index"))
	return err == nil
}

// Tables lists stored table names. Names are resolved through each
// table directory's sidecar metadata, so callers see the raw names they
// stored — not the sanitised directory names (which diverge for any name
// containing filesystem-unsafe characters). A directory without its
// sidecar, which only a build before sidecars wrote, is listed under its
// directory name only so that recovery reads its manifest and refuses
// the store's older epoch (serverengine.ErrStoreEpoch).
// Dot-prefixed directories (the .quarantine/ area) are store metadata,
// not tables, and are skipped.
func (s *Store) Tables() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		name := e.Name()
		if raw, err := os.ReadFile(filepath.Join(s.dir, name, "tablename")); err == nil && len(raw) > 0 {
			name = string(raw)
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// WriteManifest persists arbitrary table metadata as JSON, atomically
// (temp file + rename) — the manifest is the durable registration
// record restarted servers trust, so it must never be observable torn.
func (s *Store) WriteManifest(table string, v any) error {
	if err := s.ensureTable(table); err != nil {
		return err
	}
	path := filepath.Join(s.dir, sanitize(table), "manifest.json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(path, data)
}

// ReadManifest loads table metadata into v.
func (s *Store) ReadManifest(table string, v any) error {
	path := filepath.Join(s.dir, sanitize(table), "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// ErrNotFound reports a missing column: no chunk index under the name.
var ErrNotFound = errors.New("sharestore: column not found")
