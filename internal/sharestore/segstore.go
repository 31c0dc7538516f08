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
// Uploads write chunks through a temp file and an atomic rename, so a
// crash mid-write leaves the previous chunk contents intact (plus a
// stray .tmp file that is ignored). Compaction patches cells in place
// (patchChunk: the new CRC first, then the cells), which a crash can
// tear and RollForward finishes. Every chunk read verifies the
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
	"sync"

	"prism/internal/levec"
	"prism/internal/slicepool"
	"prism/internal/telemetry"
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

// forget drops what the store remembers of the files at or below path
// (a column directory or a whole table directory): the memoised index of
// every column directory and, for a table directory, its open delta log
// file, which it closes. The error is that close's.
func (s *Store) forget(path string) error {
	s.idxMu.Lock()
	for dir := range s.idx {
		if dir == path || strings.HasPrefix(dir, path+string(filepath.Separator)) {
			delete(s.idx, dir)
		}
	}
	s.idxMu.Unlock()
	s.logMu.Lock()
	defer s.logMu.Unlock()
	l := s.logs[path]
	delete(s.logs, path)
	return l.close()
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

// chunkHeader checks a chunk file's bytes against the shape the index
// promises (magic, version, width, cell count, exact length) and returns
// the payload with the CRC its header records, unverified.
func chunkHeader(raw []byte, wantWidth int, wantCells uint64) ([]byte, uint32, error) {
	if len(raw) < chunkHeaderLen || string(raw[:4]) != chunkMagic {
		return nil, 0, errors.New("bad chunk magic")
	}
	if raw[4] != formatVersion {
		return nil, 0, fmt.Errorf("unsupported chunk version %d", raw[4])
	}
	if int(raw[5]) != wantWidth {
		return nil, 0, fmt.Errorf("chunk element width %d, want %d", raw[5], wantWidth)
	}
	cells := binary.LittleEndian.Uint64(raw[6:14])
	payload := raw[chunkHeaderLen:]
	if cells != wantCells || uint64(len(payload)) != cells*uint64(wantWidth) {
		return nil, 0, fmt.Errorf("chunk holds %d cells, want %d", cells, wantCells)
	}
	return payload, binary.LittleEndian.Uint32(raw[14:18]), nil
}

func parseChunk(raw []byte, wantWidth int, wantCells uint64) ([]byte, error) {
	payload, crc, err := chunkHeader(raw, wantWidth, wantCells)
	if err == nil && crc32.ChecksumIEEE(payload) != crc {
		err = errors.New("chunk checksum mismatch")
	}
	return payload, err
}

// chunkBufs recycles the buffers chunk files are read into.
var chunkBufs slicepool.Pool[byte]

// mChunkReads counts the chunk files visitChunk and patchChunk open.
var mChunkReads = telemetry.NewCounter(telemetry.MetricStoreChunkReads)

// colLock returns the lock of the column stored in dir. visitChunk holds
// it shared while it reads a chunk file and patchChunk exclusively while
// it rewrites one in place, so no reader sees a chunk mid-patch.
func (s *Store) colLock(dir string) *sync.RWMutex {
	if mu, ok := s.colMus.Load(dir); ok {
		return mu.(*sync.RWMutex)
	}
	mu, _ := s.colMus.LoadOrStore(dir, new(sync.RWMutex))
	return mu.(*sync.RWMutex)
}

// readChunkFile reads chunk file f, which the index says holds cells
// cells, into a pooled buffer the caller hands back to chunkBufs. It
// reads one byte past the promised length, so a longer file fails
// chunkHeader's length check, and never more than the file holds, so a
// forged index cannot size the buffer.
func readChunkFile(f *os.File, ci chunkIndex, cells uint64) (buf, raw []byte, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	n := min(int64(chunkHeaderLen)+int64(cells)*int64(ci.width), st.Size()) + 1
	buf = chunkBufs.Get(int(n))
	got, err := io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		chunkBufs.Put(buf)
		return nil, nil, err
	}
	return buf, buf[:got], nil
}

// chunkCellsAt returns how many cells chunk k of a column holds.
func chunkCellsAt(ci chunkIndex, k uint64) (uint64, error) {
	lo := k * ci.chunkCells
	if lo >= ci.cells {
		return 0, fmt.Errorf("sharestore: chunk %d outside column of %d cells", k, ci.cells)
	}
	return min(ci.chunkCells, ci.cells-lo), nil
}

// visitChunk is the one chunk reader: it reads chunk k of a column into
// a pooled buffer, verifies it (magic, version, width, cell count, exact
// file length, CRC32) and hands fn the payload, valid until fn returns.
func (s *Store) visitChunk(dir string, ci chunkIndex, k uint64, fn func(payload []byte) error) error {
	cells, err := chunkCellsAt(ci, k)
	if err != nil {
		return err
	}
	path := chunkPath(dir, k)
	mu := s.colLock(dir)
	mu.RLock()
	f, err := os.Open(path)
	if err != nil {
		mu.RUnlock()
		return err
	}
	mChunkReads.Inc()
	buf, raw, err := readChunkFile(f, ci, cells)
	//prism:allow atomicwrite f is only read: its Close has no write to lose
	f.Close()
	mu.RUnlock()
	if err != nil {
		return err
	}
	defer chunkBufs.Put(buf)
	payload, err := parseChunk(raw, ci.width, cells)
	if err != nil {
		return fmt.Errorf("sharestore: %s: %w", path, err)
	}
	return fn(payload)
}

// patchChunk is the one in-place chunk writer. Under the column's
// exclusive lock it reads chunk k, sets the cells at pos (absolute
// positions inside the chunk, ascending) to vals in memory, writes the
// new payload's CRC into the header first, calls step, and then writes
// the changed cells where they lie: no temp file, no rename, a few
// bytes written per patched cell. CRC first is what makes a crash
// anywhere in the write recoverable: a torn chunk's header vouches for
// exactly the payload the patch was heading for, so applying the same
// values again finds it (cells first would leave new cells under the
// old CRC, which no replay can tell from corruption).
//
// With repair set the chunk is rolled forward instead of patched: a
// chunk whose CRC matches as read is left alone, one whose CRC matches
// once the values are applied gets those cells written, and any other
// is an error naming the chunk. patched reports that the header's CRC
// is the patched payload's: with a non-nil error the chunk is then torn.
func (s *Store) patchChunk(dir string, ci chunkIndex, k uint64, pos, vals []uint64, repair bool, step func() error) (patched bool, err error) {
	cells, err := chunkCellsAt(ci, k)
	if err != nil {
		return false, err
	}
	path := chunkPath(dir, k)
	mu := s.colLock(dir)
	mu.Lock()
	defer mu.Unlock()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	mChunkReads.Inc()
	buf, raw, err := readChunkFile(f, ci, cells)
	if err != nil {
		return false, err
	}
	defer chunkBufs.Put(buf)
	payload, crc, err := chunkHeader(raw, ci.width, cells)
	if err != nil {
		return false, fmt.Errorf("sharestore: %s: %w", path, err)
	}
	switch asRead := crc32.ChecksumIEEE(payload) == crc; {
	case repair && asRead:
		return false, nil // whole as read: nothing to roll forward
	case !repair && !asRead:
		return false, fmt.Errorf("sharestore: %s: chunk checksum mismatch", path)
	}
	lo, w := k*ci.chunkCells, uint64(ci.width)
	setCells(payload, lo, ci.width, pos, vals)
	sum := crc32.ChecksumIEEE(payload)
	if repair && sum != crc {
		return false, fmt.Errorf("sharestore: %s: chunk checksum mismatch, also with the compaction's values applied", path)
	}
	if !repair {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], sum)
		if _, err := f.WriteAt(hdr[:], chunkHeaderLen-4); err != nil {
			return true, err
		}
		if step != nil {
			if err := step(); err != nil {
				return true, err
			}
		}
	}
	// One write per run of adjacent patched cells.
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && pos[j] <= pos[j-1]+1 {
			j++
		}
		a, b := (pos[i]-lo)*w, (pos[j-1]-lo+1)*w
		if _, err := f.WriteAt(payload[a:b], int64(chunkHeaderLen+a)); err != nil {
			return true, err
		}
		i = j
	}
	return true, nil
}

// rewriteChunk reads chunk k (all zeros when no window has written it
// yet), lets patch edit the payload and atomically writes it back.
func (s *Store) rewriteChunk(dir string, ci chunkIndex, k uint64, patch func(payload []byte)) error {
	write := func(payload []byte) error {
		patch(payload)
		return writeChunkAtomic(dir, k, ci.width, payload)
	}
	err := s.visitChunk(dir, ci, k, write)
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
			err = s.rewriteChunk(dir, ci, k, func(buf []byte) { copy(buf[(lo-chunkLo)*uint64(width):], src) })
		}
		if err != nil {
			return err
		}
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

// Width is the on-disk element width of T in bytes. Cells are laid out
// by levec at this width; those calls are the only store code whose
// work depends on it, everything else moves bytes or typed slices.
func Width[T Cell]() int {
	if uint64(^T(0)) == 1<<16-1 {
		return 2
	}
	return 8
}

func cellBytes[T Cell](data []T) []byte {
	payload := make([]byte, Width[T]()*len(data))
	levec.Put(payload, data, Width[T]())
	return payload
}

// Create initialises an empty chunked column of cells cells, replacing
// any existing column under the name.
func Create[T Cell](s *Store, table, col string, cells uint64) error {
	return s.create(table, col, Width[T](), cells)
}

// Write persists a whole column: Create, then WriteRange over every
// cell. Each chunk write is atomic, the column as a whole is not — a
// crash mid-write leaves a column whose unwritten chunks are missing,
// which reads reject.
func Write[T Cell](s *Store, table, col string, data []T) error {
	if err := Create[T](s, table, col, uint64(len(data))); err != nil {
		return err
	}
	return WriteRange(s, table, col, 0, data)
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
		err = s.visitChunk(dir, ci, k, func(payload []byte) error {
			lo, hi := max(chunkLo, off), min(chunkLo+uint64(len(payload))/w, end)
			levec.Get(dst[lo-off:hi-off], payload[(lo-chunkLo)*w:], int(w))
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
	err = s.visitChunk(dir, ci, k, func(payload []byte) error {
		out = make([]T, len(payload)/ci.width)
		levec.Get(out, payload, ci.width)
		return nil
	})
	return out, err
}

// DeleteColumn removes a column (missing is not an error).
func (s *Store) DeleteColumn(table, col string) error {
	dir := s.colDir(table, col)
	defer s.forget(dir)
	return os.RemoveAll(dir)
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
