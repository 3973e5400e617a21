package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/expt"
	"repro/internal/flagdoc"
	"repro/internal/fs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// stubSrv is the server state behind every stubConn a replayer dials:
// one file namespace, and refuseReads, how many read/write accesses to
// refuse with StatusRefused before recovering.
type stubSrv struct {
	dials       int
	nextID      fs.FileID
	files       map[string]fs.FileID
	refuseReads int
}

func newStubSrv() *stubSrv {
	return &stubSrv{files: make(map[string]fs.FileID)}
}

type stubConn struct{ s *stubSrv }

func (s *stubSrv) dial() (conn, error) {
	s.dials++
	return &stubConn{s: s}, nil
}

func refusedErr() error {
	return &client.StatusError{Status: server.StatusRefused, Msg: "server shutting down"}
}

func (c *stubConn) Open(name string) (client.File, error) {
	id, ok := c.s.files[name]
	if !ok {
		return client.File{}, &client.StatusError{Status: server.StatusNotFound, Msg: name}
	}
	return client.File{ID: id, Size: 4}, nil
}

func (c *stubConn) Create(name string, d, sizeBlocks int) (client.File, error) {
	c.s.nextID++
	c.s.files[name] = c.s.nextID
	return client.File{ID: c.s.nextID, Size: sizeBlocks}, nil
}

func (c *stubConn) Remove(name string) error {
	delete(c.s.files, name)
	return nil
}

func (c *stubConn) Control(enable bool) error {
	return nil
}

func (c *stubConn) Fbehavior(op client.FbOp, a client.FbArgs) (client.FbResult, error) {
	return client.FbResult{}, nil
}

func (c *stubConn) access() error {
	if c.s.refuseReads > 0 {
		c.s.refuseReads--
		return refusedErr()
	}
	return nil
}

func (c *stubConn) ReadInto(f fs.FileID, blk int32, off, size int, dst []byte) (bool, error) {
	if err := c.access(); err != nil {
		return false, err
	}
	clear(dst[:size])
	return true, nil
}

func (c *stubConn) ReadNoData(f fs.FileID, blk int32, off, size int) (bool, error) {
	if err := c.access(); err != nil {
		return false, err
	}
	return true, nil
}

func (c *stubConn) Write(f fs.FileID, blk int32, off int, payload []byte) (bool, error) {
	if err := c.access(); err != nil {
		return false, err
	}
	return false, nil
}

func (c *stubConn) Stats() (server.StatsReply, error) { return server.StatsReply{}, nil }

func (c *stubConn) Close() error { return nil }

// transcript builds a minimal replayable event list: create a file,
// enable control, then n reads of it.
func transcript(reads int) []expt.ReplayEvent {
	evs := []expt.ReplayEvent{
		{IsCtl: true, Ctl: expt.Ctl{CtlEvent: &core.CtlEvent{Op: core.CtlCreateFile, File: 7, FileName: "f", Disk: 0, Size: 4}}},
		{IsCtl: true, Ctl: expt.Ctl{CtlEvent: &core.CtlEvent{Op: core.CtlControl, Enable: true}}},
	}
	for i := 0; i < reads; i++ {
		evs = append(evs, expt.ReplayEvent{Access: core.Access{File: 7, Block: int32(i % 4), Off: 0, Size: 8}})
	}
	return evs
}

// TestReplayRefusedNeverRecounts: when the server refuses (a drain), the
// event is counted refused exactly once and ends the replay — no
// reconnect, no retry, no recount — and the replayer exits cleanly with
// what it measured.
func TestReplayRefusedNeverRecounts(t *testing.T) {
	s := newStubSrv()
	s.refuseReads = 1000 // refuse every access
	evs := transcript(5)
	st, err := replayOne(s.dial, 1, "p/", evs, false)
	if err != nil {
		t.Fatalf("a drained server must end the replay cleanly, got %v", err)
	}
	if st.refused != 1 {
		t.Errorf("refused = %d, want exactly 1", st.refused)
	}
	// create + control + the one refused access; the drained replayer
	// must not keep issuing (and counting) the rest of the transcript.
	if st.requests != 3 {
		t.Errorf("requests = %d, want 3", st.requests)
	}
	if st.errors != 0 {
		t.Errorf("errors = %d, want 0", st.errors)
	}
	if s.dials != 1 {
		t.Errorf("dials = %d, want 1 (a refusal ends the replay, it does not reconnect)", s.dials)
	}
}

// TestReplayHardErrorAborts: a non-refusal failure is a real error — it
// counts once and kills the replay with the error propagated.
func TestReplayHardErrorAborts(t *testing.T) {
	s := newStubSrv()
	evs := []expt.ReplayEvent{
		{IsCtl: true, Ctl: expt.Ctl{CtlEvent: &core.CtlEvent{Op: core.CtlCreateFile, File: 7, FileName: "f", Disk: 0, Size: 4}}},
		// Access to a file id the transcript never created.
		{Access: core.Access{File: 9, Block: 0, Size: 8}},
	}
	st, err := replayOne(s.dial, 1, "p/", evs, false)
	if err == nil {
		t.Fatal("want an error for an access before its create event")
	}
	if st.errors != 1 || st.refused != 0 {
		t.Errorf("errors = %d, refused = %d; want 1, 0", st.errors, st.refused)
	}
	if s.dials != 1 {
		t.Errorf("dials = %d, want 1 (no reconnect on hard errors)", s.dials)
	}
}

// TestReplayAgainstServer drives runSweep at a real server — sharded,
// write-behind and read-ahead on, over a unix socket — with a recorded
// cs1 transcript: every event of both clients is answered, none refused
// or failed, and the server counted at least what the clients sent.
func TestReplayAgainstServer(t *testing.T) {
	srv := server.New(server.Config{
		Kernel: core.LiveConfig{
			CacheBytes:     core.MB(6.4),
			Alloc:          cache.LRUSP,
			ReadAhead:      true,
			ReadAheadDepth: 4,
			WallClock:      true,
		},
		Shards:         2,
		WritebackDepth: 8,
	})
	sock := serve(t, srv)

	rec := expt.Record(expt.RunSpec{
		Apps:    []expt.AppSpec{{Name: "cs1", Make: expt.Registry["cs1"], Mode: workload.Smart}},
		CacheMB: 6.4,
		Alloc:   cache.LRUSP,
		Opts:    expt.Options{ReadAheadOff: true},
	})
	var accesses int64
	for _, ev := range rec.Events {
		if !ev.IsCtl {
			accesses++
		}
	}

	const clients = 2
	res, err := runSweep("unix", sock, "t", clients, rec, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Refused != 0 {
		t.Errorf("errors %d, refused %d; want 0, 0", res.Errors, res.Refused)
	}
	if want := int64(clients * len(rec.Events)); res.Requests != want {
		t.Errorf("Requests = %d, want %d (every event of every client)", res.Requests, want)
	}
	if want := clients * accesses; res.Accesses != want {
		t.Errorf("hits + misses = %d, want %d (every access answered)", res.Accesses, want)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok on a running server")
	}
	if m.Refused != 0 || m.Requests < res.Requests {
		t.Errorf("server counted %d requests (%d refused); the clients sent %d", m.Requests, m.Refused, res.Requests)
	}
}

// TestMixMatchesSimulation runs the paper's pairs through acload's own
// path — recordSpec, then runSweep at one copy — against a server at
// acfcd's defaults (one shard, 6.4 MB, lru-sp, read-ahead off,
// synchronous write-backs), and holds each process's server-side account
// to the recording's: Table 1's protected pair (an oblivious probe
// beside a foolish read300) and Table 2's (gli beside a foolish
// read300). An oblivious process's misses match exactly, a managed one's
// within 0.5 % (the DES skips busy blocks a serial replay never has; see
// the server's oracle test), and read300's is the one session revoked.
func TestMixMatchesSimulation(t *testing.T) {
	for _, list := range []string{"read300:foolish,read490:oblivious", "gli:smart,read300:foolish"} {
		t.Run(list, func(t *testing.T) {
			apps, err := expt.ParseApps(list)
			if err != nil {
				t.Fatal(err)
			}
			rec := expt.Record(recordSpec(apps))
			sock := serve(t, server.New(server.Config{
				Kernel: core.LiveConfig{CacheBytes: core.MB(6.4), Alloc: cache.LRUSP, WallClock: true},
				Shards: 1,
			}))
			res, err := runSweep("unix", sock, "", 1, rec, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.Refused != 0 {
				t.Fatalf("errors %d, refused %d; want 0, 0", res.Errors, res.Refused)
			}
			for p, got := range res.Procs {
				want := rec.Result.PerApp[p]
				t.Logf("%s: server %d misses %+v, simulation %d misses %+v", list, got.Misses, got.Control, want.Stats.Misses, want.Control)
				if apps[p].Mode == workload.Oblivious && got.Misses != want.Stats.Misses ||
					math.Abs(float64(got.Misses-want.Stats.Misses)) > 0.005*float64(want.Stats.Misses) {
					t.Errorf("process %d (%s, %s): %d misses, simulation %d", p, want.Name, apps[p].Mode, got.Misses, want.Stats.Misses)
				}
				if wantRevoked := want.Name == "read300"; got.Control.Revoked != wantRevoked {
					t.Errorf("process %d (%s): revoked %v, want %v", p, want.Name, got.Control.Revoked, wantRevoked)
				}
			}
		})
	}
}

// serve serves srv on a unix socket in a temporary directory until the
// test ends, then shuts it down and closes it, and returns the socket.
func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "acfcd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return sock
}

// TestReplaySortLeavesNoRemovedBlocks replays the paper's sort — the
// application that lives on temporary files it deletes after every merge
// pass — at a real server over a MemStore the test can look into. Its
// 6.5 k temporary-block writes are several times the cache, so most reach
// the store; when the replay is over and the server has flushed and
// closed, every block the store holds belongs to a file that still
// exists.
func TestReplaySortLeavesNoRemovedBlocks(t *testing.T) {
	mem := disk.NewMemStore()
	srv := server.New(server.Config{
		Kernel: core.LiveConfig{
			CacheBytes:     core.MB(6.4),
			Alloc:          cache.LRUSP,
			ReadAhead:      true,
			ReadAheadDepth: 4,
			WallClock:      true,
			Store:          mem,
		},
		Shards:         2,
		WritebackDepth: 8,
	})
	sock := filepath.Join(t.TempDir(), "acfcd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	defer stop()

	rec := expt.Record(expt.RunSpec{
		Apps:    []expt.AppSpec{{Name: "sort", Make: expt.Registry["sort"], Mode: workload.Smart}},
		CacheMB: 6.4,
		Alloc:   cache.LRUSP,
		Opts:    expt.Options{ReadAheadOff: true},
	})
	var created []string
	removed := 0
	for _, ev := range rec.Events {
		if ev.IsCtl && ev.Ctl.Op == core.CtlCreateFile {
			created = append(created, ev.Ctl.FileName)
		}
		if ev.IsCtl && ev.Ctl.Op == core.CtlRemoveFile {
			removed++
		}
	}
	if removed < 10 {
		t.Fatalf("the sort transcript removes %d files; this test wants its temporaries", removed)
	}

	const clients = 2
	res, err := runSweep("unix", sock, "t", clients, rec, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Refused != 0 {
		t.Fatalf("errors %d, refused %d; want 0, 0", res.Errors, res.Refused)
	}

	// The files that still exist are the ones that open.
	c, err := client.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	var exist []fs.FileID
	for i := 0; i < clients; i++ {
		for _, name := range created {
			f, err := c.Open(fmt.Sprintf("tc%d/%s", i, name))
			if se := (*client.StatusError)(nil); errors.As(err, &se) && se.Status == server.StatusNotFound {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			exist = append(exist, f.ID)
		}
	}
	c.Close()
	if want := clients * (len(created) - removed); len(exist) != want {
		t.Fatalf("%d files exist after the replay, want %d", len(exist), want)
	}
	m, ok := srv.Metrics()
	if !ok {
		t.Fatal("Metrics not ok on a running server")
	}
	if m.Kernel.Fill.DiscardedBlocks == 0 {
		t.Error("no block was discarded: the temporaries never reached the store, or were never given back")
	}

	stop() // drains the write-behind queue, flushes what is still dirty
	held := 0
	for _, id := range exist {
		held += mem.BlocksOf(int32(id))
	}
	if held == 0 {
		t.Error("the store holds nothing of the files that exist: the check below checks nothing")
	}
	if total := mem.Blocks(); total != held {
		t.Errorf("the store holds %d blocks, %d of them of files that exist: %d belong to removed files", total, held, total-held)
	}
}

// TestFlagsDocumented: the package comment's Usage block and README's
// acload flag list each name exactly the flags newFlags registers.
func TestFlagsDocumented(t *testing.T) {
	fl, _ := newFlags()
	flagdoc.Check(t, fl, "main.go", "// Usage:\n//\n", "\n//\n")
	flagdoc.Check(t, fl, "../../README.md", "`acload` flags:\n\n", "\n\n")
}

// TestFlagCeiling pins acload's flag count: a PR that adds a flag raises
// it in its own diff.
func TestFlagCeiling(t *testing.T) {
	fl, _ := newFlags()
	n := 0
	fl.VisitAll(func(*flag.Flag) { n++ })
	if n != 4 {
		t.Errorf("acload has %d flags, want 4", n)
	}
}

// TestBadFlagsExitBeforeRecording: every rejected command line exits 2
// with a message naming the flag at fault, before the transcript is
// recorded. Each case also passes -addr bogus:x, so a command line that
// slipped through is refused for its address instead of replaying.
func TestBadFlagsExitBeforeRecording(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		msg  string // a substring of what acload prints
	}{
		{"negative clients", []string{"-clients", "-1"}, "-clients"},
		{"zero clients", []string{"-clients", "0"}, "-clients"},
		{"unknown app", []string{"-apps", "nope"}, "nope"},
		{"repeated app", []string{"-apps", "cs1,cs1"}, "cs1"},
		{"bad addr", nil, "-addr"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stderr := runWith(t, append(c.args, "-addr", "bogus:x"))
			if code != 2 || !strings.Contains(stderr, c.msg) || strings.Contains(stderr, "recording") {
				t.Errorf("exit %d, stderr %q; want exit 2 naming %s, before recording", code, stderr, c.msg)
			}
		})
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
	os.Args, os.Stderr = append([]string{"acload"}, args...), f
	code := run()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
