//go:build !race

package serverengine

const raceEnabled = false
