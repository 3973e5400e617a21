package acfc_test

import (
	"testing"

	acfc "repro"
)

// TestQuickstart runs the doc.go example end to end through the public
// API.
func TestQuickstart(t *testing.T) {
	sys := acfc.NewSystem(acfc.DefaultConfig())
	f := sys.CreateFile("trace", 0, 1024)
	p := sys.Spawn("app", func(p *acfc.Proc) {
		if err := p.EnableControl(); err != nil {
			t.Error(err)
			return
		}
		if err := p.SetPriority(f, 0); err != nil {
			t.Error(err)
		}
		if err := p.SetPolicy(0, acfc.MRU); err != nil {
			t.Error(err)
		}
		for pass := 0; pass < 9; pass++ {
			p.ReadSeq(f, 0, int32(f.Size()))
		}
	})
	sys.Run()
	ios := p.Stats().BlockIOs()
	if ios < 1024 {
		t.Errorf("BlockIOs = %d, below compulsory", ios)
	}
	if ios > 4000 {
		t.Errorf("BlockIOs = %d; MRU policy not effective", ios)
	}
	if p.Elapsed() <= 0 {
		t.Error("no elapsed time")
	}
}

// TestPublicWorkloads exercises the exported workload constructors.
func TestPublicWorkloads(t *testing.T) {
	cfg := acfc.DefaultConfig()
	cfg.CacheBytes = acfc.MB(6.4)
	sys := acfc.NewSystem(cfg)
	p := acfc.Launch(sys, acfc.Dinero(), acfc.Smart)
	q := acfc.Launch(sys, acfc.Read300(0), acfc.Oblivious)
	sys.Run()
	if p.Stats().BlockIOs() == 0 || q.Stats().BlockIOs() == 0 {
		t.Error("workloads did no I/O")
	}
}

// TestPublicConstants spot-checks the re-exported names.
func TestPublicConstants(t *testing.T) {
	if acfc.BlockSize != 8192 {
		t.Errorf("BlockSize = %d", acfc.BlockSize)
	}
	if acfc.Second != 1000*acfc.Millisecond || acfc.Millisecond != 1000*acfc.Microsecond {
		t.Error("time units inconsistent")
	}
	if acfc.RZ56.Name != "RZ56" || acfc.RZ26.Name != "RZ26" {
		t.Error("disk models wrong")
	}
	if acfc.GlobalLRU.String() != "global-lru" || acfc.LRUSP.String() != "lru-sp" {
		t.Error("alloc names wrong")
	}
	if acfc.LRU.String() != "LRU" || acfc.MRU.String() != "MRU" {
		t.Error("policy names wrong")
	}
}

// TestRevokeConfigThroughPublicAPI exercises the revocation extension
// (Config.Revoke) via the facade.
func TestRevokeConfigThroughPublicAPI(t *testing.T) {
	cfg := acfc.DefaultConfig()
	cfg.Revoke = true
	sys := acfc.NewSystem(cfg)
	acfc.Launch(sys, acfc.Read300(0), acfc.Foolish)
	acfc.Launch(sys, acfc.ReadN(400, 1170, 0), acfc.Oblivious)
	sys.Run()
	if sys.Cache().Stats().Revocations != 1 {
		t.Errorf("Revocations = %d, want 1", sys.Cache().Stats().Revocations)
	}
}

// TestTraceHook exercises Config.Trace through the public API.
func TestTraceHook(t *testing.T) {
	cfg := acfc.DefaultConfig()
	var events int
	var sawWrite, sawHit bool
	cfg.Trace = func(ev acfc.TraceEvent) {
		events++
		if ev.Write {
			sawWrite = true
		}
		if ev.Hit {
			sawHit = true
		}
	}
	sys := acfc.NewSystem(cfg)
	f := sys.CreateFile("data", 0, 10)
	sys.Spawn("app", func(p *acfc.Proc) {
		out := p.CreateFile("out", 0, 0)
		p.ReadSeq(f, 0, 10)
		p.ReadSeq(f, 0, 10)
		p.WriteSeq(out, 0, 3)
	})
	sys.Run()
	if events != 23 {
		t.Errorf("trace saw %d events, want 23", events)
	}
	if !sawWrite || !sawHit {
		t.Error("trace missing writes or hits")
	}
}
