package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the header every result is written under: a number
// without the machine, toolchain and commit it was measured on cannot
// be compared with another, and -compare refuses it.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"git_dirty"`
	GoLoC      int     `json:"go_loc_non_test"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Profile    profile `json:"profile"`
}

// profile is the pinned server configuration and load shape, recorded
// so that a result says what it was a result of.
type profile struct {
	Shards         int       `json:"shards"`
	MaxInflight    int       `json:"max_inflight"`
	WritebackDepth int       `json:"writeback_depth"`
	CacheMB        float64   `json:"cache_mb"`
	Alloc          string    `json:"alloc"`
	ReadAheadDepth int       `json:"read_ahead_depth"`
	WallClock      bool      `json:"wall_clock"`
	Connections    int       `json:"connections"`
	Window         int       `json:"window"`
	RungRates      []float64 `json:"open_rung_rates_per_s"`
	StoreLatencyUs int       `json:"open_store_latency_us"`
}

// repoRoot is the directory holding go.mod, found upwards from the
// working directory: the benchmark runs from the repository root, its
// tests from the package directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod above the working directory")
		}
		dir = parent
	}
}

// newEnvironment builds the header but for the git state, which costs a
// process and is looked up once, outside any timed set-up.
func newEnvironment(root string, seed uint64, seconds float64) (environment, error) {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Profile:    pinnedProfile(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	loc, err := goLoC(root)
	if err != nil {
		return env, err
	}
	env.GoLoC = loc
	return env, nil
}

// gitState names the commit the checkout is at and whether the working
// tree differs from it. A checkout exported without its .git directory
// has no commit to name; the header then says so instead of failing.
func gitState(root string) (commit string, dirty bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(bytes.TrimSpace(st)) > 0
}

// goLoC counts the lines of the repository's non-test Go files outside
// the benchmark itself: the size of the system being measured.
func goLoC(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(b, []byte{'\n'})
		return nil
	})
	return lines, err
}
