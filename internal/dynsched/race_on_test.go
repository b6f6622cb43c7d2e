//go:build race

package dynsched

// raceEnabled reports whether the race detector is active: wall-clock
// comparisons are skipped under -race, whose slowdown distorts them.
const raceEnabled = true
