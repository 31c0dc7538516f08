// Fixture: a test hook declared in a non-test file and a positional wire
// literal are findings, even where allowed; a local type's positional
// literal, keyed wire literals and math/rand outside share code are not.
package prism

import (
	"math/rand"

	"prism/internal/protocol"
)

type System struct{ handlers map[int]func() }

type local struct{ a, b int }

//prism:allow shape the table has no exemptions
func (s *System) interceptGroupServer(g, phi int, wrap func()) { s.handlers[g*3+phi] = wrap } // want "test-hooks: 1 sites, bound 0"

func (s *System) run(o struct{ groups []int }) []protocol.Range {
	if 1 != len(o.groups) { // want "one-group-fork: 1 sites, bound 0"
		_ = local{1, rand.Int()}
	}
	_ = &protocol.Range{Offset: 1}
	return []protocol.Range{{0, 1}, {Count: 1}} // want "keyedwire: 1 sites, bound 0"
}
