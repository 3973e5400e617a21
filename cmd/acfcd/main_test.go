package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
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

// TestFlagCeiling pins acfcd's flag count: a PR that adds a flag raises
// it in its own diff (the knob ceilings of the config structs are
// TestConfigKnobCeilings at the repository root).
func TestFlagCeiling(t *testing.T) {
	fl, _ := newFlags()
	n := 0
	fl.VisitAll(func(*flag.Flag) { n++ })
	if n != 14 {
		t.Errorf("acfcd has %d flags, want 14", n)
	}
}

// TestBadFlagsExitBeforeOpening: every rejected command line exits 2
// with a message naming the flag at fault, before any store, origin or
// listener exists. Each case first passes -listen bogus:x, so a command
// line that slipped through returns at listen instead of serving.
func TestBadFlagsExitBeforeOpening(t *testing.T) {
	dir := t.TempDir()
	held := filepath.Join(dir, "held.dat")
	want := []byte("bytes a rejected command line must not truncate")
	if err := os.WriteFile(held, want, 0o644); err != nil {
		t.Fatal(err)
	}
	cluster := "tcp:127.0.0.1:1"
	cases := []struct {
		name string
		args []string
		msg  string // a substring of what acfcd prints
	}{
		{"store with cluster", []string{"-store", held, "-cluster", cluster}, "-store"},
		{"origin without cluster", []string{"-origin", "dir:" + dir}, "-origin"},
		{"bad origin", []string{"-cluster", cluster, "-origin", "nfs:x"}, "-origin"},
		{"cluster without origin", []string{"-cluster", cluster}, "-origin"},
		{"per-process origin", []string{"-cluster", cluster, "-origin", "mem"}, "-origin"},
		{"origin without a path", []string{"-cluster", cluster, "-origin", "dir:"}, "-origin"},
		{"zero cache", []string{"-cache-mb", "0"}, "-cache-mb"},
		{"negative cache", []string{"-cache-mb", "-1"}, "-cache-mb"},
		{"NaN cache", []string{"-cache-mb", "NaN"}, "-cache-mb"},
		{"cache past int64 bytes", []string{"-cache-mb", "1e13"}, "-cache-mb"},
		{"cache under one block", []string{"-cache-mb", "0.001"}, "-cache-mb"},
		{"zero inflight", []string{"-inflight", "0"}, "-inflight"},
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"zero idle", []string{"-idle", "0s"}, "-idle"},
		{"negative grace", []string{"-grace", "-1s"}, "-grace"},
		{"negative write-behind", []string{"-writeback-depth", "-1"}, "-writeback-depth"},
		{"negative read-ahead", []string{"-readahead", "-1"}, "-readahead"},
		{"unknown policy", []string{"-alloc", "nope"}, "nope"},
		{"bad listen", nil, "-listen"},
		{"listen without network", []string{"-listen", "acfcd.sock"}, "-listen"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stderr := runWith(t, append([]string{"-listen", "bogus:x"}, c.args...))
			if code != 2 || !strings.Contains(stderr, c.msg) {
				t.Errorf("exit %d, stderr %q; want exit 2 naming %s", code, stderr, c.msg)
			}
		})
	}
	if got, _ := os.ReadFile(held); !bytes.Equal(got, want) {
		t.Errorf("-store file holds %d bytes after the rejected runs, want its %d intact", len(got), len(want))
	}
}

// runWith calls run with args as the command line and returns its exit
// code and what it wrote to stderr.
func runWith(t *testing.T, args []string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldArgs, oldStderr := os.Args, os.Stderr
	defer func() { os.Args, os.Stderr = oldArgs, oldStderr }()
	os.Args, os.Stderr = append([]string{"acfcd"}, args...), f
	code := run()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
