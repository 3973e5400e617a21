package main

import (
	"testing"

	"repro/internal/flagdoc"
)

// TestFlagsDocumented: the package comment's Usage block and README's
// acfcd flag list each name exactly the flags newFlags registers.
func TestFlagsDocumented(t *testing.T) {
	fl, _ := newFlags()
	flagdoc.Check(t, fl, "main.go", "// Usage:\n//\n", "\n//\n")
	flagdoc.Check(t, fl, "../../README.md", "`acfcd` flags:\n\n", "\n\n")
}
