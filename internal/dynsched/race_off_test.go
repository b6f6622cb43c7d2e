//go:build !race

package dynsched

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
