//go:build race

package ownerengine

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts, so allocation bounds over pooled frames do not hold.
const raceEnabled = true
