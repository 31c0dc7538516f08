// Fixture: a wire mode, a second PSU mask label, a PSI verification
// round of its own and gob on a connection are findings.
package prism

import "encoding/gob" // want "gob-off-the-wire: 1 sites, bound 0"

func (s *System) VerifyPSI( // want "psi-verify: 1 sites, bound 0"
	wire bool, // want "wire-mode: 1 sites, bound 0"
	enc *gob.Encoder,
) error {
	return enc.Encode("psup/g0") // want "psu-label: 1 sites, bound 0"
}
