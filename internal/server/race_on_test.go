//go:build race

package server

// RaceEnabled reports whether the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates on paths that are
// alloc-free in a normal build, so allocation gates don't apply.
// Exported for the package's external tests.
const RaceEnabled = true
