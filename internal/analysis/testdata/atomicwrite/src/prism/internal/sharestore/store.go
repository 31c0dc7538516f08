// Fixture: the blessed helpers may touch os directly; everything else
// must route through them, and durability errors must not be swallowed.
package sharestore

import "os"

// atomicWriteFile is blessed: it IS the tmp+rename discipline. Even
// blessed code must not discard the rename's error.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	os.Rename(tmp, path) // want "os.Rename with its error discarded"
	return nil
}

// renameColumnDir moves a live column directory aside and another into
// its place: no directory rename is blessed, so both are flagged.
func renameColumnDir(src, dst string) error {
	if err := os.Rename(dst, dst+".old"); err != nil { // want "direct os.Rename outside the blessed atomic-write helpers"
		return err
	}
	return os.Rename(src, dst) // want "direct os.Rename outside the blessed atomic-write helpers"
}

// writeManifest bypasses the helper — the seeded violation.
func writeManifest(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want "direct os.WriteFile outside the blessed atomic-write helpers"
}

// renameRaw bypasses the helper with a rename.
func renameRaw(from, to string) error {
	return os.Rename(from, to) // want "direct os.Rename outside the blessed atomic-write helpers"
}

// closeQuietly drops the error that carries the write-back failure.
func closeQuietly(f *os.File) {
	defer f.Close() // want "Close on an os.File with its error discarded"
}

// stagedBuild is an audited exception: the directory is not live yet.
func stagedBuild(dir string, data []byte) error {
	//prism:allow atomicwrite staged directory, renamed into place by the caller
	return os.WriteFile(dir+"/index", data, 0o644)
}

// readSide only reads; nothing here is a write-path call.
func readSide(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// patchChunk is the blessed in-place writer: it may open a live file
// for writing and write into it.
func patchChunk(path string, crc, cells []byte) (err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.WriteAt(crc, 14); err != nil {
		return err
	}
	_, err = f.WriteAt(cells, 18)
	return err
}

// appendDeltaRecord is the blessed append writer: it may open a live
// log file for appending and write a record to its end.
func appendDeltaRecord(path string, rec []byte) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(rec)
	return err
}

// patchElsewhere writes into a live file outside the blessed helpers —
// the seeded violations of the in-place rule.
func patchElsewhere(path string, data []byte, flag int) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0) // want "write-mode os.OpenFile outside the blessed in-place helper"
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.WriteAt(data, 0); err != nil { // want "(*os.File).WriteAt outside the blessed in-place helper"
		return err
	}
	if _, err := f.Write(data); err != nil { // want "(*os.File).Write outside the blessed in-place helper"
		return err
	}
	if _, err := f.WriteString("x"); err != nil { // want "(*os.File).WriteString outside the blessed in-place helper"
		return err
	}
	g, err := os.OpenFile(path, flag, 0) // want "write-mode os.OpenFile outside the blessed in-place helper"
	if err != nil {
		return err
	}
	return g.Close()
}

// openReadOnly opens with constant read-only flags: not a write.
func openReadOnly(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDONLY, 0)
}
