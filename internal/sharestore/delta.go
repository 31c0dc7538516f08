// Delta-log segments: the persistent half of incremental updates.
//
// A streaming owner ships small updates — one request per update and
// server — instead of re-outsourcing whole columns. Each server appends
// every accepted update to a per-table delta log, as one segment, before
// acknowledging it:
//
//	<table>/deltalog/
//	    d<seq>.dseg    magic "PRSD", version, CRC32 of the body,
//	                   body: seq, per-column entry lists
//	                   (column name, elem width, n × {position, value})
//
// Segments carry absolute replacement values for stored positions —
// not increments — so replaying a segment is idempotent and replaying
// the log over a base that already absorbed a prefix of it converges
// to the same column values. That property is what makes compaction
// crash-safe at every ordering point (see the serverengine compactor).
// Compaction writes the base in place (PatchCells: a chunk's new header
// CRC, then its changed cells), so a crash can tear a chunk between the
// two; replaying the same values over it is also what finishes it
// (RollForward), and a chunk the replay does not make whole is corrupt.
//
// Every segment write goes through a temp file and an atomic rename
// and carries a CRC32 of its body, exactly like column chunks: a
// torn segment is detected on read (ReadDeltaSeg fails) and the
// recovery path quarantines the table rather than serving it.
// Sequence numbers order replay; gaps are legal (a segment whose write
// failed was never acknowledged, so nothing depends on it).
package sharestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
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
	// deltaLogDir is the per-table subdirectory holding delta segments.
	// Column directories are named "<col>.colv2", so no column can
	// collide with it.
	deltaLogDir = "deltalog"
)

// DeltaCol is one column's entries within a delta segment: parallel
// position/value lists of absolute replacement values at stored
// (permuted) positions. Width is the column element width in bytes (2
// or 8); uint16 column values travel zero-extended in Vals.
type DeltaCol struct {
	Name  string
	Width int
	Pos   []uint64
	Vals  []uint64
}

func (s *Store) deltaDir(table string) string {
	return filepath.Join(s.dir, sanitize(table), deltaLogDir)
}

func deltaSegPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("d%d.dseg", seq))
}

func encodeDeltaSeg(seq uint64, cols []DeltaCol) []byte {
	var body []byte
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], seq)
	body = append(body, u[:]...)
	binary.LittleEndian.PutUint32(u[:4], uint32(len(cols)))
	body = append(body, u[:4]...)
	for _, c := range cols {
		binary.LittleEndian.PutUint16(u[:2], uint16(len(c.Name)))
		body = append(body, u[:2]...)
		body = append(body, c.Name...)
		body = append(body, uint8(c.Width))
		binary.LittleEndian.PutUint64(u[:], uint64(len(c.Pos)))
		body = append(body, u[:]...)
		for i, p := range c.Pos {
			binary.LittleEndian.PutUint64(u[:], p)
			body = append(body, u[:]...)
			switch c.Width {
			case 2:
				binary.LittleEndian.PutUint16(u[:2], uint16(c.Vals[i]))
				body = append(body, u[:2]...)
			default:
				binary.LittleEndian.PutUint64(u[:], c.Vals[i])
				body = append(body, u[:]...)
			}
		}
	}
	buf := make([]byte, 0, deltaHeaderLen+len(body))
	buf = append(buf, deltaMagic...)
	buf = append(buf, formatVersion)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	buf = append(buf, crc[:]...)
	return append(buf, body...)
}

// parseDeltaSeg decodes and validates a delta segment's bytes. It is
// the single entry point for untrusted segment contents (see
// FuzzDeltaReplay) and must never panic or over-allocate on garbage.
func parseDeltaSeg(raw []byte) (uint64, []DeltaCol, error) {
	if len(raw) < deltaHeaderLen+12 || string(raw[:4]) != deltaMagic {
		return 0, nil, errors.New("sharestore: bad delta segment magic")
	}
	if raw[4] != formatVersion {
		return 0, nil, fmt.Errorf("sharestore: unsupported delta segment version %d", raw[4])
	}
	crc := binary.LittleEndian.Uint32(raw[5:9])
	body := raw[deltaHeaderLen:]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, errors.New("sharestore: delta segment checksum mismatch")
	}
	seq := binary.LittleEndian.Uint64(body[:8])
	ncols := binary.LittleEndian.Uint32(body[8:12])
	body = body[12:]
	// The CRC already vouches for the body, but bounds still gate every
	// read so a colliding-CRC forgery cannot panic or over-allocate.
	cols := make([]DeltaCol, 0, min(int(ncols), 64))
	for i := uint32(0); i < ncols; i++ {
		if len(body) < 2 {
			return 0, nil, errors.New("sharestore: truncated delta segment")
		}
		nameLen := int(binary.LittleEndian.Uint16(body[:2]))
		body = body[2:]
		if len(body) < nameLen+1+8 {
			return 0, nil, errors.New("sharestore: truncated delta segment")
		}
		name := string(body[:nameLen])
		width := int(body[nameLen])
		body = body[nameLen+1:]
		if width != 2 && width != 8 {
			return 0, nil, fmt.Errorf("sharestore: delta segment element width %d", width)
		}
		n := binary.LittleEndian.Uint64(body[:8])
		body = body[8:]
		entry := uint64(8 + width)
		if n > uint64(len(body))/entry {
			return 0, nil, errors.New("sharestore: truncated delta segment")
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
		return 0, nil, errors.New("sharestore: trailing bytes in delta segment")
	}
	return seq, cols, nil
}

// AppendDeltaSeg durably writes one delta segment (temp file + atomic
// rename, CRC'd body). Segments must be appended with strictly
// increasing seq; replay applies them in seq order. The store remembers
// which tables' delta log directories it has made (until DropTable or a
// quarantine forgets the table), so an append to one costs the
// segment's temp write and rename alone.
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
	dir := s.deltaDir(table)
	tdir := filepath.Dir(dir)
	s.idxMu.Lock()
	known := s.deltaDirs[tdir]
	s.idxMu.Unlock()
	if !known {
		if err := s.ensureTable(table); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		s.idxMu.Lock()
		s.deltaDirs[tdir] = true
		s.idxMu.Unlock()
	}
	return atomicWriteFile(deltaSegPath(dir, seq), encodeDeltaSeg(seq, cols))
}

// DeltaSegs lists a table's delta segment sequence numbers in replay
// (ascending) order. A table with no delta log returns an empty list.
func (s *Store) DeltaSegs(table string) ([]uint64, error) {
	entries, err := os.ReadDir(s.deltaDir(table))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "d") || !strings.HasSuffix(name, ".dseg") {
			continue
		}
		seq, err := strconv.ParseUint(name[1:len(name)-5], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ReadDeltaSeg loads and CRC-verifies one delta segment. A torn or
// corrupted segment fails here — callers treat that like a torn chunk
// and quarantine the table.
func (s *Store) ReadDeltaSeg(table string, seq uint64) ([]DeltaCol, error) {
	raw, err := os.ReadFile(deltaSegPath(s.deltaDir(table), seq))
	if err != nil {
		return nil, err
	}
	gotSeq, cols, err := parseDeltaSeg(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (%s/d%d.dseg)", err, table, seq)
	}
	if gotSeq != seq {
		return nil, fmt.Errorf("sharestore: delta segment %s/d%d.dseg records seq %d", table, seq, gotSeq)
	}
	return cols, nil
}

// DeleteDeltaSeg removes one delta segment (missing is not an error).
// Compaction deletes absorbed segments oldest-first: if a crash leaves
// a newer suffix behind, replaying it over the compacted base is
// idempotent, whereas a surviving older segment could override newer
// values on replay.
func (s *Store) DeleteDeltaSeg(table string, seq uint64) error {
	err := os.Remove(deltaSegPath(s.deltaDir(table), seq))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
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
		if errors.Is(err, fs.ErrNotExist) {
			// No window has written the chunk yet: patch its implicit zeros.
			return s.rewriteChunk(dir, ci, k, func(buf []byte) { setCells(buf, k*ci.chunkCells, ci.width, pos, vals) })
		}
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
