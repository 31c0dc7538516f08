// Fixture: a second unsafe import, past the unsafe-import row's bound.
package share

import "unsafe" // want "unsafe-import: 2 sites, bound 1"

// Size reads a size through unsafe.
func Size() uintptr { return unsafe.Sizeof(uint64(0)) }
