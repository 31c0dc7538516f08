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
// increasing seq; replay applies them in seq order.
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
	if err := s.ensureTable(table); err != nil {
		return err
	}
	dir := s.deltaDir(table)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
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

// PatchCells rewrites individual cells of a chunked column with
// absolute values — the compaction write path. Positions are grouped
// by chunk; each affected chunk is read, patched and atomically
// rewritten with a fresh CRC, so only chunks containing updated cells
// are touched and a crash between chunk writes leaves every chunk
// complete (old or new — the delta log still holds the values either
// way).
func (s *Store) PatchCells(table, col string, width int, pos, vals []uint64) error {
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
	byChunk := make(map[uint64][]int)
	for i, p := range pos {
		if p >= ci.cells {
			return fmt.Errorf("sharestore: %s/%s: position %d outside column of %d cells", table, col, p, ci.cells)
		}
		k := p / ci.chunkCells
		byChunk[k] = append(byChunk[k], i)
	}
	chunks := make([]uint64, 0, len(byChunk))
	for k := range byChunk {
		chunks = append(chunks, k)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	for _, k := range chunks {
		lo := k * ci.chunkCells
		err := rewriteChunk(dir, ci, k, func(buf []byte) {
			for _, i := range byChunk[k] {
				off := (pos[i] - lo) * uint64(width)
				if width == 2 {
					binary.LittleEndian.PutUint16(buf[off:], uint16(vals[i]))
				} else {
					binary.LittleEndian.PutUint64(buf[off:], vals[i])
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
