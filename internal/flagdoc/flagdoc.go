// Package flagdoc holds a command's documentation to the flags it
// registers, so neither can drift from the other. Test support for the
// cmd/ packages.
package flagdoc

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// flagToken matches -name where documentation starts a flag: at the
// start of a line or after a space, bracket, pipe or backquote — never
// inside a hyphenated word or value such as lru-sp.
var flagToken = regexp.MustCompile("(?m)(?:^|[\\s\\[(|`])-([a-z][a-z0-9-]*)")

// Check fails t unless the block of the file at path that starts after
// begin and stops before end names every flag fl registers as -name, and
// names no other.
func Check(t *testing.T, fl *flag.FlagSet, path, begin, end string) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(file), begin)
	if !ok {
		t.Fatalf("%s: no %q", path, begin)
	}
	block, _, _ := strings.Cut(rest, end)
	named := make(map[string]bool)
	for _, m := range flagToken.FindAllStringSubmatch(block, -1) {
		named[m[1]] = true
		if fl.Lookup(m[1]) == nil {
			t.Errorf("%s documents -%s, which is not registered", path, m[1])
		}
	}
	fl.VisitAll(func(f *flag.Flag) {
		if !named[f.Name] {
			t.Errorf("%s does not document the registered flag -%s", path, f.Name)
		}
	})
}
