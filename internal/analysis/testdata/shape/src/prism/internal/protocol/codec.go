// Fixture: the one unsafe import the unsafe-import row allows.
package protocol

import "unsafe"

func alias(b []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
