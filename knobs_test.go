package acfc_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/vmclock"
)

// TestConfigKnobCeilings caps the exported fields of every configuration
// struct, the settable values a caller can reach. A change that adds a
// knob raises its ceiling here, in its own diff, as one that grows the
// code raises the Makefile's LOC_MAX; acfcd's and acload's flag counts
// are pinned in their own packages' tests.
func TestConfigKnobCeilings(t *testing.T) {
	for _, c := range []struct {
		cfg     any
		ceiling int
	}{
		{server.Config{}, 6},
		{core.LiveConfig{}, 8},
		{core.Config{}, 13},
		{cache.Config{}, 5},
		{expt.RunSpec{}, 11},
		{expt.Options{}, 3},
		{vmclock.Config{}, 3},
		{fs.Config{}, 2},
		{cluster.NodeConfig{}, 3},
	} {
		typ := reflect.TypeOf(c.cfg)
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n > c.ceiling {
			t.Errorf("%v has %d exported fields, over its ceiling of %d", typ, n, c.ceiling)
		}
	}
}
