//go:build race

package expt

// raceEnabled reports whether the race detector is instrumenting this
// build, which runs the simulator several times slower.
const raceEnabled = true
