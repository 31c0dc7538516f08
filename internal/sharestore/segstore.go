// The chunked column layout: the segment store.
//
// A column is stored as fixed-size chunk segments plus a small chunk
// index, so reading any window costs only the chunks that overlap it and
// rewriting a cell rewrites one chunk — a server's resident memory and
// write amplification do not scale with the domain size b:
//
//	<table>/<col>.colv2/
//	    index        magic "PRSI", version, elem width, chunk cells,
//	                 total cells, CRC32 of those fields
//	    c<k>.ck      magic "PRSC", version, elem width, cells in chunk,
//	                 CRC32 of the payload, payload
//
// Chunk k covers cells [k·chunkCells, min((k+1)·chunkCells, cells)).
// Every chunk write goes through a temp file and an atomic rename, so a
// crash mid-write leaves the previous chunk contents intact (plus a
// stray .tmp file that is ignored); every chunk read verifies the
// per-chunk CRC, so a torn or corrupted segment is rejected without
// poisoning its neighbours. Ranged reads touch only the chunks that
// overlap the requested window — the fetch cost of a shard-window query
// is O(window + chunk), not O(b).
package sharestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"prism/internal/slicepool"
)

const (
	idxMagic   = "PRSI"
	chunkMagic = "PRSC"
	// DefaultChunkCells is the chunk size (in cells) for newly created
	// chunked columns: 64Ki cells = 128 KiB per uint16 chunk, 512 KiB per
	// uint64 chunk.
	DefaultChunkCells = 1 << 16

	idxLen         = 4 + 1 + 1 + 8 + 8 + 4 // magic, version, width, chunkCells, cells, crc
	chunkHeaderLen = 4 + 1 + 1 + 8 + 4     // magic, version, width, cells, crc
)

// ColumnInfo describes one stored column's on-disk shape.
type ColumnInfo struct {
	Width      int    // element width in bytes: 2 or 8
	Cells      uint64 // total cells
	ChunkCells uint64 // cells per chunk
}

// NumChunks returns how many chunk segments cover the column.
func (ci ColumnInfo) NumChunks() uint64 {
	if ci.Cells == 0 || ci.ChunkCells == 0 {
		return 0
	}
	return (ci.Cells + ci.ChunkCells - 1) / ci.ChunkCells
}

// ChunkSpan returns the cell range [lo, hi) chunk k covers.
func (ci ColumnInfo) ChunkSpan(k uint64) (lo, hi uint64) {
	lo = k * ci.ChunkCells
	hi = lo + ci.ChunkCells
	if hi > ci.Cells {
		hi = ci.Cells
	}
	return lo, hi
}

// SetChunkCells sets the chunk size (in cells) for columns created from
// now on; 0 restores DefaultChunkCells. Existing columns keep the chunk
// size recorded in their index.
func (s *Store) SetChunkCells(n uint64) {
	if n == 0 {
		n = DefaultChunkCells
	}
	s.chunkCells = n
}

// ChunkCells reports the chunk size used for new columns.
func (s *Store) ChunkCells() uint64 { return s.chunkCells }

func (s *Store) colDir(table, col string) string {
	return filepath.Join(s.dir, sanitize(table), sanitize(col)+".colv2")
}

// ---- chunk index ----

type chunkIndex struct {
	width      int
	chunkCells uint64
	cells      uint64
}

func encodeIndex(ci chunkIndex) []byte {
	buf := make([]byte, 0, idxLen)
	buf = append(buf, idxMagic...)
	buf = append(buf, formatVersion, uint8(ci.width))
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], ci.chunkCells)
	buf = append(buf, u[:]...)
	binary.LittleEndian.PutUint64(u[:], ci.cells)
	buf = append(buf, u[:]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[4:]))
	return append(buf, crc[:]...)
}

// parseIndex decodes and validates a chunk-index file's bytes. It is the
// single entry point for untrusted index contents (see FuzzChunkIndex).
func parseIndex(raw []byte) (chunkIndex, error) {
	var ci chunkIndex
	if len(raw) != idxLen || string(raw[:4]) != idxMagic {
		return ci, errors.New("sharestore: bad chunk index")
	}
	if raw[4] != formatVersion {
		return ci, fmt.Errorf("sharestore: unsupported chunk index version %d", raw[4])
	}
	if crc32.ChecksumIEEE(raw[4:idxLen-4]) != binary.LittleEndian.Uint32(raw[idxLen-4:]) {
		return ci, errors.New("sharestore: chunk index checksum mismatch")
	}
	ci.width = int(raw[5])
	ci.chunkCells = binary.LittleEndian.Uint64(raw[6:14])
	ci.cells = binary.LittleEndian.Uint64(raw[14:22])
	if ci.width != 2 && ci.width != 8 {
		return ci, fmt.Errorf("sharestore: chunk index element width %d", ci.width)
	}
	if ci.chunkCells == 0 {
		return ci, errors.New("sharestore: chunk index has zero chunk size")
	}
	// Reject cell counts that could not possibly fit on disk: they would
	// otherwise drive huge allocations in readers.
	if ci.cells > (1<<62)/uint64(ci.width) {
		return ci, fmt.Errorf("sharestore: chunk index cell count %d out of range", ci.cells)
	}
	return ci, nil
}

// index returns the chunk index of the column stored in dir. The file is
// read once: the result is memoised until forget drops it, which every
// operation that replaces or removes an index file does on its way out.
// A miss reads the file under the lock, so a stale index can never be
// stored after the forget that follows its replacement.
func (s *Store) index(dir string) (chunkIndex, error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if ci, ok := s.idx[dir]; ok {
		return ci, nil
	}
	raw, err := os.ReadFile(filepath.Join(dir, "index"))
	if errors.Is(err, fs.ErrNotExist) && recoverColumnDir(dir) {
		raw, err = os.ReadFile(filepath.Join(dir, "index"))
	}
	if err != nil {
		return chunkIndex{}, err
	}
	ci, err := parseIndex(raw)
	if err != nil {
		return ci, fmt.Errorf("%w (%s)", err, dir)
	}
	s.idx[dir] = ci
	return ci, nil
}

// forget drops the memoised index of every column directory at or below
// path (a column directory or a whole table directory).
func (s *Store) forget(path string) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	for dir := range s.idx {
		if dir == path || strings.HasPrefix(dir, path+string(filepath.Separator)) {
			delete(s.idx, dir)
		}
	}
}

// recoverColumnDir restores a column moved aside by an interrupted
// swapInColumnDir: a crash between its two renames leaves the last-good
// column under <dir>.old and nothing under the live name. Reads route
// through here on an index miss, so the reopen-serves-last-good
// guarantee holds across that crash window too.
func recoverColumnDir(dir string) bool {
	old := dir + ".old"
	if _, err := os.Stat(filepath.Join(old, "index")); err != nil {
		return false
	}
	//prism:allow atomicwrite renaming the complete .old column back to its live name is itself the recovery step
	if err := os.Rename(old, dir); err != nil {
		// A concurrent reader may have completed the same recovery.
		_, statErr := os.Stat(filepath.Join(dir, "index"))
		return statErr == nil
	}
	return true
}

// ---- chunk files ----

func chunkPath(dir string, k uint64) string {
	return filepath.Join(dir, fmt.Sprintf("c%d.ck", k))
}

func encodeChunk(width int, payload []byte) []byte {
	buf := make([]byte, 0, chunkHeaderLen+len(payload))
	buf = append(buf, chunkMagic...)
	buf = append(buf, formatVersion, uint8(width))
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], uint64(len(payload)/width))
	buf = append(buf, u[:]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf = append(buf, crc[:]...)
	return append(buf, payload...)
}

func parseChunk(raw []byte, wantWidth int, wantCells uint64) ([]byte, error) {
	if len(raw) < chunkHeaderLen || string(raw[:4]) != chunkMagic {
		return nil, errors.New("bad chunk magic")
	}
	if raw[4] != formatVersion {
		return nil, fmt.Errorf("unsupported chunk version %d", raw[4])
	}
	if int(raw[5]) != wantWidth {
		return nil, fmt.Errorf("chunk element width %d, want %d", raw[5], wantWidth)
	}
	cells := binary.LittleEndian.Uint64(raw[6:14])
	crc := binary.LittleEndian.Uint32(raw[14:18])
	payload := raw[chunkHeaderLen:]
	if cells != wantCells || uint64(len(payload)) != cells*uint64(wantWidth) {
		return nil, fmt.Errorf("chunk holds %d cells, want %d", cells, wantCells)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errors.New("chunk checksum mismatch")
	}
	return payload, nil
}

// chunkBufs recycles the buffers chunk files are read into.
var chunkBufs slicepool.Pool[byte]

// visitChunk is the one chunk reader: it reads chunk k of a column into
// a pooled buffer, verifies it (magic, version, width, cell count, exact
// file length, CRC32) and hands fn the payload, valid until fn returns.
func visitChunk(dir string, ci chunkIndex, k uint64, fn func(payload []byte) error) error {
	lo := k * ci.chunkCells
	if lo >= ci.cells {
		return fmt.Errorf("sharestore: chunk %d outside column of %d cells", k, ci.cells)
	}
	cells := min(ci.chunkCells, ci.cells-lo)
	path := chunkPath(dir, k)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//prism:allow atomicwrite f is only read: its Close has no write to lose
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	// The index says how long the file must be. Read one byte past that,
	// so a longer file fails parseChunk's length check, and never more
	// than the file holds, so a forged index cannot size the buffer.
	n := min(int64(chunkHeaderLen)+int64(cells)*int64(ci.width), st.Size()) + 1
	buf := chunkBufs.Get(int(n))
	defer chunkBufs.Put(buf)
	got, err := io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	payload, err := parseChunk(buf[:got], ci.width, cells)
	if err != nil {
		return fmt.Errorf("sharestore: %s: %w", path, err)
	}
	return fn(payload)
}

// rewriteChunk reads chunk k (all zeros when no window has written it
// yet), lets patch edit the payload and atomically writes it back.
func rewriteChunk(dir string, ci chunkIndex, k uint64, patch func(payload []byte)) error {
	write := func(payload []byte) error {
		patch(payload)
		return writeChunkAtomic(dir, k, ci.width, payload)
	}
	err := visitChunk(dir, ci, k, write)
	if errors.Is(err, fs.ErrNotExist) {
		err = write(make([]byte, min(ci.chunkCells, ci.cells-k*ci.chunkCells)*uint64(ci.width)))
	}
	return err
}

func writeChunkAtomic(dir string, k uint64, width int, payload []byte) error {
	return atomicWriteFile(chunkPath(dir, k), encodeChunk(width, payload))
}

// ---- width-erased operations ----

// column opens the chunk index of table/col and checks the element
// width a caller is about to read or write it as.
func (s *Store) column(table, col string, width int) (string, chunkIndex, error) {
	dir := s.colDir(table, col)
	ci, err := s.index(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return dir, ci, fmt.Errorf("sharestore: %s/%s: %w", table, col, ErrNotFound)
	}
	if err != nil {
		return dir, ci, err
	}
	if ci.width != width {
		return dir, ci, fmt.Errorf("sharestore: %s/%s: element width %d, want %d", table, col, ci.width, width)
	}
	return dir, ci, nil
}

// create initialises an empty chunked column of the given shape,
// removing any previous column under the name.
func (s *Store) create(table, col string, width int, cells uint64) error {
	dir := s.colDir(table, col)
	defer s.forget(dir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := s.ensureTable(table); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	idx := encodeIndex(chunkIndex{width: width, chunkCells: s.chunkCells, cells: cells})
	return atomicWriteFile(filepath.Join(dir, "index"), idx)
}

// writeRange patches cells [off, off+n) of an existing column with the
// given payload bytes. Chunks fully covered by the window are rewritten
// from the payload alone; boundary chunks are read, patched and
// rewritten. Each chunk write is atomic (temp file + rename) and carries
// a fresh CRC.
func (s *Store) writeRange(table, col string, width int, off uint64, payload []byte) error {
	n := uint64(len(payload)) / uint64(width)
	if n == 0 {
		return nil
	}
	dir, ci, err := s.column(table, col, width)
	if err != nil {
		return err
	}
	if off > ci.cells || n > ci.cells-off {
		return fmt.Errorf("sharestore: %s/%s: write [%d, %d) outside column of %d cells", table, col, off, off+n, ci.cells)
	}
	cc := ci.chunkCells
	for k := off / cc; k*cc < off+n; k++ {
		chunkLo := k * cc
		chunkHi := min(chunkLo+cc, ci.cells)
		lo, hi := max(chunkLo, off), min(chunkHi, off+n) // window ∩ chunk, in cells
		src := payload[(lo-off)*uint64(width) : (hi-off)*uint64(width)]
		if lo == chunkLo && hi == chunkHi {
			err = writeChunkAtomic(dir, k, width, src) // full-chunk rewrite: no read-modify-write
		} else {
			err = rewriteChunk(dir, ci, k, func(buf []byte) { copy(buf[(lo-chunkLo)*uint64(width):], src) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// buildColumnDir materialises a complete chunked column (index plus
// every chunk) in dir, which must not be live — callers rename it into
// place afterwards, so no tmp-file dance is needed per chunk.
func (s *Store) buildColumnDir(dir string, width int, cells uint64, payload []byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cc := s.chunkCells
	idx := encodeIndex(chunkIndex{width: width, chunkCells: cc, cells: cells})
	//prism:allow atomicwrite dir is a staged (not yet live) directory; callers rename it into place
	if err := os.WriteFile(filepath.Join(dir, "index"), idx, 0o644); err != nil {
		return err
	}
	for k := uint64(0); k*cc < cells; k++ {
		hi := min((k+1)*cc, cells)
		chunk := encodeChunk(width, payload[k*cc*uint64(width):hi*uint64(width)])
		//prism:allow atomicwrite staged directory, see above
		if err := os.WriteFile(chunkPath(dir, k), chunk, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// swapInColumnDir atomically replaces the live chunked column directory
// dst with src (a fully built column directory): the previous column is
// moved aside, src renamed into place, and the leftovers cleaned up. On
// rename failure the previous column is restored, so at every crash
// point either the old or the new column is completely present.
func (s *Store) swapInColumnDir(src, dst string) error {
	defer s.forget(dst)
	defer s.forget(src)
	old := dst + ".old"
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	moved := false
	if _, err := os.Stat(dst); err == nil {
		if err := os.Rename(dst, old); err != nil {
			return err
		}
		moved = true
	}
	if err := os.Rename(src, dst); err != nil {
		if moved {
			//prism:allow atomicwrite best-effort rollback; the swap error is what must surface, and recoverColumnDir replays this rename on the next read anyway
			os.Rename(old, dst)
		}
		return err
	}
	return os.RemoveAll(old)
}

// writeFull atomically replaces a column with a freshly built chunked
// copy: the new column is staged under a sibling name and swapped into
// place, so a crash mid-write leaves the previous column intact.
func (s *Store) writeFull(table, col string, width int, cells uint64, payload []byte) error {
	if err := s.ensureTable(table); err != nil {
		return err
	}
	dir := s.colDir(table, col)
	stage := dir + ".new"
	if err := s.buildColumnDir(stage, width, cells, payload); err != nil {
		os.RemoveAll(stage)
		return err
	}
	if err := s.swapInColumnDir(stage, dir); err != nil {
		os.RemoveAll(stage)
		return err
	}
	return nil
}

// Stat reports a column's shape without reading its payload.
func (s *Store) Stat(table, col string) (ColumnInfo, error) {
	ci, err := s.index(s.colDir(table, col))
	if errors.Is(err, fs.ErrNotExist) {
		return ColumnInfo{}, fmt.Errorf("sharestore: %s/%s: %w", table, col, ErrNotFound)
	}
	if err != nil {
		return ColumnInfo{}, err
	}
	return ColumnInfo{Width: ci.width, Cells: ci.cells, ChunkCells: ci.chunkCells}, nil
}

// ---- typed API ----

// Cell is the element type of a stored column: uint16 additive shares
// or uint64 field shares.
type Cell interface{ ~uint16 | ~uint64 }

// Width is the on-disk element width of T in bytes.
func Width[T Cell]() int {
	if uint64(^T(0)) == 1<<16-1 {
		return 2
	}
	return 8
}

// encode writes src little-endian into dst (len(dst) ≥ Width·len(src)).
// encode and decode are the only code whose work depends on the cell
// width; everything else in the store moves bytes or typed slices.
func encode[T Cell](dst []byte, src []T) {
	if Width[T]() == 2 {
		for i, v := range src {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
		}
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// cellAt decodes the little-endian cell at the start of src.
func cellAt[T Cell](src []byte) T {
	if Width[T]() == 2 {
		return T(binary.LittleEndian.Uint16(src))
	}
	return T(binary.LittleEndian.Uint64(src))
}

// decode fills dst from little-endian src (len(src) ≥ Width·len(dst)),
// four cells a step: one load (uint16) or one bounds check (uint64).
func decode[T Cell](dst []T, src []byte) {
	w := Width[T]()
	for ; len(dst) >= 4; dst, src = dst[4:], src[4*w:] {
		if w == 2 {
			u := binary.LittleEndian.Uint64(src)
			dst[0], dst[1], dst[2], dst[3] = T(uint16(u)), T(uint16(u>>16)), T(uint16(u>>32)), T(uint16(u>>48))
		} else {
			s := src[:32]
			dst[0], dst[1], dst[2], dst[3] = T(binary.LittleEndian.Uint64(s)), T(binary.LittleEndian.Uint64(s[8:])), T(binary.LittleEndian.Uint64(s[16:])), T(binary.LittleEndian.Uint64(s[24:]))
		}
	}
	for i := range dst {
		dst[i] = cellAt[T](src[w*i:])
	}
}

func cellBytes[T Cell](data []T) []byte {
	payload := make([]byte, Width[T]()*len(data))
	encode(payload, data)
	return payload
}

// Create initialises an empty chunked column of cells cells, replacing
// any existing column under the name.
func Create[T Cell](s *Store, table, col string, cells uint64) error {
	return s.create(table, col, Width[T](), cells)
}

// Write persists a whole column. The replacement is staged and swapped
// in atomically, so a crash mid-write leaves the previous column intact.
func Write[T Cell](s *Store, table, col string, data []T) error {
	return s.writeFull(table, col, Width[T](), uint64(len(data)), cellBytes(data))
}

// WriteRange durably patches cells [off, off+len(data)) of a column.
// Writes are atomic per chunk and each rewritten chunk carries a fresh
// CRC; only the chunks overlapping the window are touched. The column
// must exist (Create or a previous Write).
func WriteRange[T Cell](s *Store, table, col string, off uint64, data []T) error {
	return s.writeRange(table, col, Width[T](), off, cellBytes(data))
}

// window opens table/col as a column of T holding cells [off, off+count):
// the width and bounds check of every typed read.
func window[T Cell](s *Store, table, col string, off, count uint64) (string, chunkIndex, error) {
	dir, ci, err := s.column(table, col, Width[T]())
	if err == nil && (off > ci.cells || count > ci.cells-off) {
		err = fmt.Errorf("sharestore: %s/%s: read [%d, %d) outside column of %d cells", table, col, off, off+count, ci.cells)
	}
	return dir, ci, err
}

// ReadRange loads cells [off, off+count) into a new slice.
func ReadRange[T Cell](s *Store, table, col string, off, count uint64) ([]T, error) {
	if _, _, err := window[T](s, table, col, off, count); err != nil {
		return nil, err // before count sizes the allocation
	}
	out := make([]T, count)
	return out, ReadRangeInto(s, table, col, off, out)
}

// ReadRangeInto fills dst with cells [off, off+len(dst)): each chunk that
// overlaps the window is decoded straight from its verified bytes.
func ReadRangeInto[T Cell](s *Store, table, col string, off uint64, dst []T) error {
	dir, ci, err := window[T](s, table, col, off, uint64(len(dst)))
	if err != nil {
		return err
	}
	w, cc, end := uint64(ci.width), ci.chunkCells, off+uint64(len(dst))
	for k := off / cc; err == nil && off < end && k*cc < end; k++ {
		chunkLo := k * cc
		err = visitChunk(dir, ci, k, func(payload []byte) error {
			lo, hi := max(chunkLo, off), min(chunkLo+uint64(len(payload))/w, end)
			decode(dst[lo-off:hi-off], payload[(lo-chunkLo)*w:])
			return nil
		})
	}
	return err
}

// ReadChunk loads chunk k of a column (cells
// [k·ChunkCells, min((k+1)·ChunkCells, Cells))) into a new slice.
func ReadChunk[T Cell](s *Store, table, col string, k uint64) (out []T, err error) {
	dir, ci, err := s.column(table, col, Width[T]())
	if err != nil {
		return nil, err
	}
	err = visitChunk(dir, ci, k, func(payload []byte) error {
		out = make([]T, len(payload)/ci.width)
		decode(out, payload)
		return nil
	})
	return out, err
}

// GatherChunk reads chunk k of a column and sets out[i] to cell idx[i]
// for every i in order, decoding only those; all must lie in chunk k.
func GatherChunk[T Cell](s *Store, table, col string, k uint64, idx []uint32, order []int32, out []T) error {
	dir, ci, err := s.column(table, col, Width[T]())
	if err != nil {
		return err
	}
	lo, w := k*ci.chunkCells, uint64(ci.width)
	return visitChunk(dir, ci, k, func(payload []byte) error {
		cells := uint64(len(payload)) / w
		for _, i := range order {
			c := uint64(idx[i]) - lo // wraps past any chunk size when idx[i] < lo
			if c >= cells {
				return fmt.Errorf("sharestore: %s/%s: cell %d outside chunk %d", table, col, idx[i], k)
			}
			out[i] = cellAt[T](payload[c*w:])
		}
		return nil
	})
}

// RenameColumn renames a column within a table, replacing any column
// already stored under the new name via the same move-aside swap as full
// writes — at every crash point a complete column (old or new) is
// present under the target name. The server's sharded-upload assembly
// streams windows into pending column names and renames them into place
// on completion, so queries never observe a half-uploaded column.
func (s *Store) RenameColumn(table, from, to string) error {
	src := s.colDir(table, from)
	if _, err := os.Stat(filepath.Join(src, "index")); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("sharestore: %s/%s: %w", table, from, ErrNotFound)
		}
		return err
	}
	return s.swapInColumnDir(src, s.colDir(table, to))
}

// DeleteColumn removes a column, along with any staged transients from
// interrupted writes (missing is not an error).
func (s *Store) DeleteColumn(table, col string) error {
	dir := s.colDir(table, col)
	defer s.forget(dir)
	for _, d := range []string{dir, dir + ".new", dir + ".old"} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// ensureTable creates the table directory and records the raw
// (unsanitised) table name in a sidecar file, so Tables can report the
// names callers actually stored rather than their on-disk sanitised
// forms.
func (s *Store) ensureTable(table string) error {
	dir := filepath.Join(s.dir, sanitize(table))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "tablename")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return atomicWriteFile(path, []byte(table))
}
