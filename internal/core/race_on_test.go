//go:build race

package core_test

// raceEnabled reports whether the race detector is instrumenting this
// build; its bookkeeping allocates, so allocation gates skip under it.
const raceEnabled = true
