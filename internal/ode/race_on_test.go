//go:build race

package ode

// raceEnabled reports whether the race detector is active: allocation
// gates are skipped under -race, whose instrumentation (and sync.Pool's
// deliberate random drops) inflates allocation counts.
const raceEnabled = true
