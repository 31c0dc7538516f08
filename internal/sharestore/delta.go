// The delta log: the persistent half of incremental updates.
//
// A streaming owner ships small updates — one request per update and
// server — instead of re-outsourcing whole columns. Each server appends
// every accepted update to its table's delta log, as one record, before
// acknowledging it:
//
//	<table>/deltalog/
//	    l<first-seq>.dlog   records back to back, each a 4-byte
//	                        little-endian length and then the record:
//	                        magic "PRSD", version, CRC32 of the body,
//	                        body: seq, per-column entry lists
//	                        (column name, elem width, n × {position, value})
//
// The store keeps one log file per table open and appends each record
// with one write (appendDeltaRecord); a write that fails is cut off
// again, so a file ends in whole records unless the process died in the
// middle of an append. Compaction seals the file as it snapshots the
// overlay (SealDeltaLog: the next append opens l<its seq>.dlog), and
// deletes the sealed files, oldest first, once their records are in the
// base (DeleteDeltaLog). Nothing here calls fsync: an acknowledged
// update survives the death of the process, not of the machine.
//
// Records carry absolute replacement values for stored positions — not
// increments — so replaying a record is idempotent and replaying the
// log over a base that already absorbed a prefix of it converges to the
// same column values. That property is what makes compaction crash-safe
// at every ordering point (see the serverengine compactor). Compaction
// writes the base in place (PatchCells: a chunk's new header CRC, then
// its changed cells), so a crash can tear a chunk between the two;
// replaying the same values over it is also what finishes it
// (RollForward), and a chunk the replay does not make whole is corrupt.
//
// ReadDeltaLog is the boot read. A record that does not parse, fails
// its CRC or breaks the sequence order is ErrDeltaCorrupt, and recovery
// quarantines the table rather than serving it — except the last record
// of the newest file when it stops short of its length: that append
// never returned, so it was never acknowledged, and the read cuts it
// off. Sequence numbers order replay; gaps are legal (an append whose
// write failed was never acknowledged, so nothing depends on it).
package sharestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const (
	deltaMagic     = "PRSD"
	deltaHeaderLen = 4 + 1 + 4 // magic, version, crc
	deltaLenPrefix = 4         // a log record's length prefix
	// deltaLogDir is the per-table subdirectory holding the delta log.
	// Column directories are named "<col>.colv2", so no column can
	// collide with it.
	deltaLogDir = "deltalog"
)

// ErrDeltaCorrupt marks a delta log that cannot be replayed: a record
// that does not parse or fails its CRC, one out of sequence order, or a
// torn record anywhere but at the end of the newest file.
var ErrDeltaCorrupt = errors.New("sharestore: corrupt delta log")

// errDeltaTorn reports a log file whose last record stops short of its
// length: an append the process did not live to finish.
var errDeltaTorn = errors.New("sharestore: torn delta log record")

// DeltaCol is one column's entries within a delta record: parallel
// position/value lists of absolute replacement values at stored
// (permuted) positions. Width is the column element width in bytes (2
// or 8); uint16 column values travel zero-extended in Vals.
type DeltaCol struct {
	Name  string
	Width int
	Pos   []uint64
	Vals  []uint64
}

// DeltaRecord is one acknowledged update as the delta log holds it.
type DeltaRecord struct {
	Seq  uint64
	Cols []DeltaCol
}

// deltaLog is a table's active log file, the one appends go to.
type deltaLog struct {
	f     *os.File // nil once closed
	first uint64   // the sequence its name carries
	size  int64    // its length: whole records only, unless err is set
	// err is set when a failed append could not be cut off: the file
	// then ends in a torn record, which must stay the newest file's last
	// for recovery to cut it, so the log takes no more appends and no
	// seal until the store forgets the table.
	err error
}

// close closes l's file, if it has one open.
func (l *deltaLog) close() error {
	if l == nil || l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	return f.Close()
}

func (s *Store) tableDir(table string) string { return filepath.Join(s.dir, sanitize(table)) }

func (s *Store) deltaDir(table string) string { return filepath.Join(s.tableDir(table), deltaLogDir) }

func deltaLogPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("l%d.dlog", first))
}

// logSeqs lists the sequences n of dir's log files, l<n>.dlog,
// ascending. A missing dir holds none.
func logSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "l") || !strings.HasSuffix(name, ".dlog") {
			continue
		}
		if n, err := strconv.ParseUint(name[1:len(name)-len(".dlog")], 10, 64); err == nil {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out, nil
}

// deltaSegLen is the length of the record appendDeltaSeg writes for cols.
func deltaSegLen(cols []DeltaCol) int {
	n := deltaHeaderLen + 12
	for _, c := range cols {
		n += 2 + len(c.Name) + 1 + 8 + len(c.Pos)*(8+c.Width)
	}
	return n
}

// appendDeltaSeg appends one record's bytes to dst.
func appendDeltaSeg(dst []byte, seq uint64, cols []DeltaCol) []byte {
	start := len(dst)
	dst = append(dst, deltaMagic...)
	dst = append(dst, formatVersion, 0, 0, 0, 0) // the CRC, set below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cols)))
	for _, c := range cols {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, uint8(c.Width))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(c.Pos)))
		for i, p := range c.Pos {
			dst = binary.LittleEndian.AppendUint64(dst, p)
			if c.Width == 2 {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(c.Vals[i]))
			} else {
				dst = binary.LittleEndian.AppendUint64(dst, c.Vals[i])
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[start+5:], crc32.ChecksumIEEE(dst[start+deltaHeaderLen:]))
	return dst
}

// parseDeltaSeg decodes and validates one record's bytes. It is the
// single entry point for untrusted record contents (see FuzzDeltaReplay)
// and must never panic or over-allocate on garbage.
func parseDeltaSeg(raw []byte) (uint64, []DeltaCol, error) {
	if len(raw) < deltaHeaderLen+12 || string(raw[:4]) != deltaMagic {
		return 0, nil, errors.New("sharestore: bad delta record magic")
	}
	if raw[4] != formatVersion {
		return 0, nil, fmt.Errorf("sharestore: unsupported delta record version %d", raw[4])
	}
	crc := binary.LittleEndian.Uint32(raw[5:9])
	body := raw[deltaHeaderLen:]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, errors.New("sharestore: delta record checksum mismatch")
	}
	seq := binary.LittleEndian.Uint64(body[:8])
	ncols := binary.LittleEndian.Uint32(body[8:12])
	body = body[12:]
	// The CRC already vouches for the body, but bounds still gate every
	// read so a colliding-CRC forgery cannot panic or over-allocate.
	cols := make([]DeltaCol, 0, min(int(ncols), 64))
	for i := uint32(0); i < ncols; i++ {
		if len(body) < 2 {
			return 0, nil, errors.New("sharestore: truncated delta record")
		}
		nameLen := int(binary.LittleEndian.Uint16(body[:2]))
		body = body[2:]
		if len(body) < nameLen+1+8 {
			return 0, nil, errors.New("sharestore: truncated delta record")
		}
		name := string(body[:nameLen])
		width := int(body[nameLen])
		body = body[nameLen+1:]
		if width != 2 && width != 8 {
			return 0, nil, fmt.Errorf("sharestore: delta record element width %d", width)
		}
		n := binary.LittleEndian.Uint64(body[:8])
		body = body[8:]
		entry := uint64(8 + width)
		if n > uint64(len(body))/entry {
			return 0, nil, errors.New("sharestore: truncated delta record")
		}
		c := DeltaCol{Name: name, Width: width, Pos: make([]uint64, n), Vals: make([]uint64, n)}
		for j := uint64(0); j < n; j++ {
			c.Pos[j] = binary.LittleEndian.Uint64(body[:8])
			if width == 2 {
				c.Vals[j] = uint64(binary.LittleEndian.Uint16(body[8:10]))
			} else {
				c.Vals[j] = binary.LittleEndian.Uint64(body[8:16])
			}
			body = body[entry:]
		}
		cols = append(cols, c)
	}
	if len(body) != 0 {
		return 0, nil, errors.New("sharestore: trailing bytes in delta record")
	}
	return seq, cols, nil
}

// parseDeltaLog splits one log file's bytes into records. It returns the
// records up to the first that is not whole and valid, the bytes they
// take, and for that one an error: errDeltaTorn if it stops short of its
// length — as far as it goes, a prefix of a record, the shape an
// interrupted append leaves — and otherwise one wrapping ErrDeltaCorrupt.
// Like parseDeltaSeg it must never panic or over-allocate (FuzzDeltaLog).
func parseDeltaLog(raw []byte) (recs []DeltaRecord, whole int, err error) {
	for whole < len(raw) {
		rest := raw[whole:]
		if len(rest) < deltaLenPrefix {
			return recs, whole, errDeltaTorn
		}
		n, rec := binary.LittleEndian.Uint32(rest), rest[deltaLenPrefix:]
		if uint64(n) > uint64(len(rec)) {
			const head = deltaMagic + string(rune(formatVersion))
			if k := min(len(rec), len(head)); string(rec[:k]) != head[:k] {
				return recs, whole, fmt.Errorf("%w: record at byte %d runs past the end and is no record", ErrDeltaCorrupt, whole)
			}
			return recs, whole, errDeltaTorn
		}
		seq, cols, perr := parseDeltaSeg(rec[:n])
		if perr != nil {
			return recs, whole, fmt.Errorf("%w: record at byte %d: %w", ErrDeltaCorrupt, whole, perr)
		}
		recs = append(recs, DeltaRecord{Seq: seq, Cols: cols})
		whole += deltaLenPrefix + int(n)
	}
	return recs, whole, nil
}

// AppendDeltaSeg appends one update to a table's delta log, as one
// record written with one write to the log file the store keeps open
// for the table (appendDeltaRecord). Records must be appended with
// strictly increasing seq; replay applies them in seq order. The first
// append after a seal, a restart or Close opens a new file, named by
// its seq.
func (s *Store) AppendDeltaSeg(table string, seq uint64, cols []DeltaCol) error {
	for _, c := range cols {
		if len(c.Pos) != len(c.Vals) {
			return fmt.Errorf("sharestore: delta column %q: %d positions, %d values", c.Name, len(c.Pos), len(c.Vals))
		}
		if c.Width != 2 && c.Width != 8 {
			return fmt.Errorf("sharestore: delta column %q: element width %d", c.Name, c.Width)
		}
		if len(c.Name) > 1<<16-1 {
			return fmt.Errorf("sharestore: delta column name %d bytes long", len(c.Name))
		}
	}
	n := deltaSegLen(cols)
	if n > math.MaxUint32 {
		return fmt.Errorf("sharestore: delta record of %d bytes", n)
	}
	rec := binary.LittleEndian.AppendUint32(make([]byte, 0, deltaLenPrefix+n), uint32(n))
	rec = appendDeltaSeg(rec, seq, cols)
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.appendDeltaRecord(table, seq, rec)
}

// appendDeltaRecord is the one function that appends to a live store
// file (prism-vet's atomicwrite blesses it by name). It opens the
// table's log file if none is open — l<seq>.dlog, seq being the first
// record's — and writes rec to its end in one Write. A failed Write is
// cut off again (the file truncated to its length before it), so the
// file keeps ending in whole records; if that fails too, the torn record
// stays last and the log refuses further appends (deltaLog.err). A crash
// mid-Write leaves the same torn last record, which ReadDeltaLog cuts
// off at the next start. Caller holds logMu.
func (s *Store) appendDeltaRecord(table string, seq uint64, rec []byte) error {
	tdir := s.tableDir(table)
	l := s.logs[tdir]
	if l == nil {
		if err := s.ensureTable(table); err != nil {
			return err
		}
		dir := filepath.Join(tdir, deltaLogDir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(deltaLogPath(dir, seq), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		// A file of this name left by a process that died before any
		// append to it landed is empty; keep its length regardless.
		fi, err := f.Stat()
		if err != nil {
			return errors.Join(err, f.Close())
		}
		l = &deltaLog{f: f, first: seq, size: fi.Size()}
		s.logs[tdir] = l
	}
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(rec); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("sharestore: %s: a failed delta log append could not be cut off (%w); no more appends until restart", table, terr)
		}
		return err
	}
	l.size += int64(len(rec))
	return nil
}

// ReadDeltaLog returns a table's delta log, every record in sequence
// order: the boot read recovery replays, before any append to the table
// in this process. It reads the l<seq>.dlog files and nothing else. A
// torn last record of the newest file is cut off — the file truncated
// to its last whole record — and not returned; any other record that is
// torn, does not parse, or does not rise in sequence (within a file,
// from one file to the next, and from the sequence a file's name
// carries) is an error wrapping ErrDeltaCorrupt that names its file. A
// table with no log has no records.
func (s *Store) ReadDeltaLog(table string) ([]DeltaRecord, error) {
	dir := s.deltaDir(table)
	s.logMu.Lock()
	defer s.logMu.Unlock()
	files, err := logSeqs(dir)
	if err != nil {
		return nil, err
	}
	active := s.logs[s.tableDir(table)]
	var out []DeltaRecord
	for i, first := range files {
		path := deltaLogPath(dir, first)
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		recs, whole, err := parseDeltaLog(raw)
		switch {
		case errors.Is(err, errDeltaTorn) && i == len(files)-1:
			// The open file of a log that refuses appends keeps its torn
			// record until the restart that reads it first.
			if active == nil || active.first != first {
				if err := os.Truncate(path, int64(whole)); err != nil {
					return nil, err
				}
			}
		case errors.Is(err, errDeltaTorn):
			return nil, fmt.Errorf("%w: %s/%s: torn record at byte %d, and a newer file follows", ErrDeltaCorrupt, table, filepath.Base(path), whole)
		case err != nil:
			return nil, fmt.Errorf("%w (%s/%s)", err, table, filepath.Base(path))
		}
		for _, r := range recs {
			if r.Seq < first || len(out) > 0 && r.Seq <= out[len(out)-1].Seq {
				return nil, fmt.Errorf("%w: %s/%s: record of sequence %d out of order", ErrDeltaCorrupt, table, filepath.Base(path), r.Seq)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// SealDeltaLog closes a table's open log file, so the next append opens
// a new one, and returns the sequence every log file of the table is
// named by, ascending — all of them sealed now. Compaction seals under
// the table's delta lock as it snapshots the overlay, so each file it
// gets back holds only records the snapshot covers, and a crash or an
// error leaves them for the next pass's seal to return again.
func (s *Store) SealDeltaLog(table string) ([]uint64, error) {
	tdir := s.tableDir(table)
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if l := s.logs[tdir]; l != nil {
		if l.err != nil {
			return nil, l.err
		}
		delete(s.logs, tdir)
		if err := l.close(); err != nil {
			return nil, err
		}
	}
	return logSeqs(filepath.Join(tdir, deltaLogDir))
}

// DeleteDeltaLog removes a sealed log file, the one named by sequence
// first (missing is not an error; the file open for appends is).
// Compaction deletes the files its seal returned oldest first: if a
// crash leaves a newer suffix behind, replaying it over the compacted
// base is idempotent, whereas a surviving older file could override
// newer values on replay.
func (s *Store) DeleteDeltaLog(table string, first uint64) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if l := s.logs[s.tableDir(table)]; l != nil && l.first == first {
		return fmt.Errorf("sharestore: %s: delta log file l%d.dlog is open for appends", table, first)
	}
	err := os.Remove(deltaLogPath(s.deltaDir(table), first))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Close closes the delta log files the store holds open. The store stays
// usable: the next append to a table opens a new file.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	var errs []error
	for tdir, l := range s.logs {
		errs = append(errs, l.close())
		if l.err == nil {
			delete(s.logs, tdir)
		}
	}
	return errors.Join(errs...)
}

// ErrMidPatch marks a PatchCellsStep failure that left a chunk with a
// header CRC its cells do not match yet: the chunk fails every read
// until RollForward (which recovery runs at the next start) finishes it.
var ErrMidPatch = errors.New("sharestore: chunk left mid-patch")

// PatchCells sets individual cells of a chunked column to absolute
// values: the compaction write path. Each chunk holding one of pos is
// read, CRC-checked and patched in place (patchChunk): its header CRC is
// written first, then the changed cells, so the pass costs what it
// changes rather than a rewrite of every chunk it touches, and it
// creates no file. A crash mid-pass leaves each chunk old, new, or torn
// between the two under the new CRC; RollForward, given the same values,
// finishes a torn one. Readers of the column never see a chunk mid-patch.
func (s *Store) PatchCells(table, col string, width int, pos, vals []uint64) error {
	return s.PatchCellsStep(table, col, width, pos, vals, nil)
}

// PatchCellsStep is PatchCells with step(k) called between chunk k's new
// CRC and its cells. An error from step ends the pass there as a crash
// would, the chunk left torn (ErrMidPatch). Any other failure after a
// CRC write rolls that chunk forward before the error is returned; a
// chunk that cannot be rolled forward is reported as ErrMidPatch.
func (s *Store) PatchCellsStep(table, col string, width int, pos, vals []uint64, step func(k uint64) error) error {
	return s.eachChunk(table, col, width, pos, vals, func(dir string, ci chunkIndex, k uint64, pos, vals []uint64) error {
		var stepErr error
		var stepk func() error
		if step != nil {
			stepk = func() error { stepErr = step(k); return stepErr }
		}
		patched, err := s.patchChunk(dir, ci, k, pos, vals, false, stepk)
		if err == nil || !patched {
			return err
		}
		if stepErr == nil {
			_, rerr := s.patchChunk(dir, ci, k, pos, vals, true, nil)
			if rerr == nil {
				return err
			}
			err = fmt.Errorf("%w; rolling it forward: %w", err, rerr)
		}
		return fmt.Errorf("%w: %s/%s chunk %d: %w", ErrMidPatch, table, col, k, err)
	})
}

// RollForward finishes the in-place patch a crashed or failed pass left
// in a column, given the values that pass was writing at pos. Every
// chunk holding one of pos that fails its header CRC as read gets those
// values applied and, if its CRC then matches, written back; a chunk
// that matches as read is left as it is. Any other chunk is an error
// naming it: the column is corrupt, not mid-patch.
func (s *Store) RollForward(table, col string, width int, pos, vals []uint64) error {
	return s.eachChunk(table, col, width, pos, vals, func(dir string, ci chunkIndex, k uint64, pos, vals []uint64) error {
		_, err := s.patchChunk(dir, ci, k, pos, vals, true, nil)
		return err
	})
}

// eachChunk sorts the entries (pos[i], vals[i]) of a column by position,
// checks them against its bounds and calls fn once per chunk they land
// in, ascending, with that chunk's entries. Entries at one position keep
// their order, so the last one wins.
func (s *Store) eachChunk(table, col string, width int, pos, vals []uint64, fn func(dir string, ci chunkIndex, k uint64, pos, vals []uint64) error) error {
	if len(pos) != len(vals) {
		return fmt.Errorf("sharestore: %s/%s: %d positions, %d values", table, col, len(pos), len(vals))
	}
	if len(pos) == 0 {
		return nil
	}
	dir, ci, err := s.column(table, col, width)
	if err != nil {
		return err
	}
	if !slices.IsSorted(pos) {
		idx := make([]int, len(pos))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return pos[idx[a]] < pos[idx[b]] })
		ps, vs := make([]uint64, len(pos)), make([]uint64, len(pos))
		for i, j := range idx {
			ps[i], vs[i] = pos[j], vals[j]
		}
		pos, vals = ps, vs
	}
	if last := pos[len(pos)-1]; last >= ci.cells {
		return fmt.Errorf("sharestore: %s/%s: position %d outside column of %d cells", table, col, last, ci.cells)
	}
	for i := 0; i < len(pos); {
		k := pos[i] / ci.chunkCells
		j := i + 1
		for j < len(pos) && pos[j]/ci.chunkCells == k {
			j++
		}
		if err := fn(dir, ci, k, pos[i:j], vals[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// setCells writes vals at the absolute positions pos into payload, the
// cells of a chunk starting at cell lo.
func setCells(payload []byte, lo uint64, width int, pos, vals []uint64) {
	w := uint64(width)
	for i, p := range pos {
		if w == 2 {
			binary.LittleEndian.PutUint16(payload[(p-lo)*w:], uint16(vals[i]))
		} else {
			binary.LittleEndian.PutUint64(payload[(p-lo)*w:], vals[i])
		}
	}
}
