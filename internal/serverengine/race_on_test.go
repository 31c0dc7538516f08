//go:build race

package serverengine

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts, so allocation fences over pooled buffers do not hold.
const raceEnabled = true
