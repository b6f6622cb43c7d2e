//go:build !race

package ode

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
