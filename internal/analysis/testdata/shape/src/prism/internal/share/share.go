// Fixture: math/rand inside a share-derivation package.
package share

import "math/rand" // want "cryptorand: 1 sites, bound 0"

// Weak draws from the forbidden source.
func Weak() uint64 { return rand.Uint64() }
