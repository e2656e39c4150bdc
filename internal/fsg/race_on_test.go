//go:build race

package fsg

// raceEnabled reports whether the race detector instruments this
// build, which changes allocation counts.
const raceEnabled = true
