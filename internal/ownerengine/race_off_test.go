//go:build !race

package ownerengine

const raceEnabled = false
