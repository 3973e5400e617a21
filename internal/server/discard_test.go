package server_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/server"
)

// waitWriteBehindIdle polls until no shard has a write-back or a discard
// in its write-behind FIFO, and returns the snapshot that said so.
func waitWriteBehindIdle(t *testing.T, srv *server.Server) server.Metrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, ok := srv.Metrics()
		if !ok {
			t.Fatal("server drained while waiting for the write-behind queue")
		}
		if m.WritebacksInflight == 0 {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("write-behind queue never emptied: %d in flight", m.WritebacksInflight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreFollowsLiveSet is the tentpole's gate: what the store holds
// follows the files that exist. Sessions loop create → write twice the
// cache → remove, in rounds; during a round the store never holds more
// than the round's files could have written back, between rounds — every
// reply in, the write-behind queue empty — it holds nothing, and every
// block that was ever written back was given back. With write-behind
// (discards ride the write-behind FIFO) and without (they run inline).
func TestStoreFollowsLiveSet(t *testing.T) {
	const (
		sessions    = 4
		rounds      = 5
		cacheBlocks = 32
		fileBlocks  = 2 * cacheBlocks
	)
	for _, depth := range []int{8, 0} {
		t.Run(fmt.Sprintf("writeback-depth=%d", depth), func(t *testing.T) {
			mem := disk.NewMemStore()
			srv, _, dial := startServer(t, server.Config{
				Kernel:         core.LiveConfig{CacheBytes: cacheBlocks * core.BlockSize, Store: mem},
				Shards:         2,
				WritebackDepth: depth,
			})
			block := bytes.Repeat([]byte{0xd1}, core.BlockSize)
			var writtenBack atomic.Int64
			for r := 0; r < rounds; r++ {
				var wg sync.WaitGroup
				for s := 0; s < sessions; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c := dial()
						defer c.Close()
						name := fmt.Sprintf("s%d/r%d", s, r)
						f, err := c.Create(name, 0, 0)
						if err != nil {
							t.Error(err)
							return
						}
						for b := int32(0); b < fileBlocks; b++ {
							if _, err := c.Write(f.ID, b, 0, block); err != nil {
								t.Error(err)
								return
							}
						}
						if got := mem.Blocks(); got > sessions*fileBlocks {
							t.Errorf("round %d: store holds %d blocks, more than the %d this round's files have", r, got, sessions*fileBlocks)
						}
						if err := c.Remove(name); err != nil {
							t.Error(err)
							return
						}
						sr, err := c.Stats()
						if err != nil {
							t.Error(err)
							return
						}
						writtenBack.Add(sr.Session.WriteBacks)
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				m := waitWriteBehindIdle(t, srv)
				if got := mem.Blocks(); got != 0 {
					t.Fatalf("round %d: every file removed, every reply in, queue empty: store holds %d blocks, want 0", r, got)
				}
				if m.Kernel.Fill.DiscardedBlocks == 0 {
					t.Fatalf("round %d: nothing was discarded (and nothing reached the store?)", r)
				}
			}
			m := waitWriteBehindIdle(t, srv)
			shutdownAndClose(t, srv)
			if got := mem.Blocks(); got != 0 {
				t.Errorf("after Shutdown and Close the store holds %d blocks, want 0", got)
			}
			// Every block was written once, so written back at most once: the
			// blocks given back are the blocks written back. (A session's
			// counter is read before its last write-backs have completed, so
			// the sessions' sum can only fall short.)
			fill := m.Kernel.Fill
			if fill.DiscardedBlocks < writtenBack.Load() || fill.DiscardedBlocks > sessions*rounds*fileBlocks {
				t.Errorf("DiscardedBlocks = %d; the sessions saw %d write-backs complete, of %d blocks written", fill.DiscardedBlocks, writtenBack.Load(), sessions*rounds*fileBlocks)
			}
			if depth > 0 && fill.WritebacksQueued+fill.WritebackStalls == 0 {
				t.Error("no write-back went through the write-behind path")
			}
		})
	}
}

// orderStore logs every write and discard in order of arrival and holds
// the writes at a gate; discards pass, so one run ahead of its turn shows
// in the log.
type orderStore struct {
	disk.Store
	gate chan struct{}

	mu  sync.Mutex
	log []string
}

func (s *orderStore) WriteBlock(file, blk int32, src []byte) error {
	kind := "w"
	if src == nil {
		kind = "d"
	}
	s.mu.Lock()
	s.log = append(s.log, fmt.Sprintf("%s%d", kind, blk))
	s.mu.Unlock()
	if src != nil {
		<-s.gate
	}
	return s.Store.WriteBlock(file, blk, src)
}

func (s *orderStore) arrivals() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.log)
}

// TestDiscardOrderedBehindWriteBack: the first full batch (blocks 0 and
// 1; the queue holds 2) is held at the store's gate, blocks 2 and 3 fill
// the queue behind it, and the file is removed. The discard must neither
// run inline in the shard (a full queue sends an ordinary
// write-back that way) nor reach the store before the writes it follows:
// it joins the FIFO past the bound, the remove is answered at
// once, and when the gate opens the store sees four writes, then the
// discards of the file's whole eight-block extent, and ends empty. The discard is in nobody's write-back
// counters.
func TestDiscardOrderedBehindWriteBack(t *testing.T) {
	mem := disk.NewMemStore()
	store := &orderStore{Store: mem, gate: make(chan struct{})}
	srv, _, dial := startServer(t, server.Config{
		Kernel:         core.LiveConfig{CacheBytes: 4 * core.BlockSize, Store: store},
		Shards:         1,
		WritebackDepth: 2,
	})
	// Whatever fails below, the server's shutdown (registered before
	// this, so run after it) must not find a batch still at the gate.
	openGate := sync.OnceFunc(func() { close(store.gate) })
	t.Cleanup(openGate)
	c := dial()
	defer c.Close()
	f, err := c.Create("f", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x0b}, core.BlockSize)
	write := func(blk int32) {
		t.Helper()
		if _, err := c.Write(f.ID, blk, 0, block); err != nil {
			t.Fatal(err)
		}
	}
	for blk := int32(0); blk <= 5; blk++ { // the fifth evicts block 0, the sixth block 1
		write(blk)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(store.arrivals()) == 0 { // the batch is at the gate; nothing queues behind it yet
		if time.Now().After(deadline) {
			t.Fatal("the first batch never reached the store")
		}
		time.Sleep(time.Millisecond)
	}
	write(6) // evicts block 2: queued
	write(7) // evicts block 3: queued, and the queue is full

	within(t, 5*time.Second, "remove with the write-behind queue full", func() {
		if err := c.Remove("f"); err != nil {
			t.Error(err)
		}
	})
	if got := store.arrivals(); !slices.Equal(got, []string{"w0"}) {
		t.Fatalf("store calls with the gate shut: %v, want only block 0's write (the discard ran ahead of the queue)", got)
	}
	m, _ := srv.Metrics()
	if m.WritebacksInflight != 5 {
		t.Errorf("WritebacksInflight = %d with the gate shut, want 4 write-backs and the discard", m.WritebacksInflight)
	}

	openGate()
	m = waitWriteBehindIdle(t, srv)
	if got, want := store.arrivals(), []string{"w0", "w1", "w2", "w3", "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}; !slices.Equal(got, want) {
		t.Errorf("store calls: %v, want %v", got, want)
	}
	if got := mem.Blocks(); got != 0 {
		t.Errorf("store holds %d blocks of the removed file, want 0 (a write landed after its discard)", got)
	}
	fill := m.Kernel.Fill
	if fill.DiscardedBlocks != 8 || fill.WritebacksQueued != 4 || fill.WritebackQueueHighWater != 4 ||
		fill.WritebackStalls != 0 || fill.WritebackBatches != 0 || fill.WritebackErrors != 0 {
		t.Errorf("fill stats %+v: want 8 discarded, 4 queued, high water 4, no stall, batch or error", fill)
	}
	sr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Session.WriteBacks != 4 {
		t.Errorf("session WriteBacks = %d, want 4", sr.Session.WriteBacks)
	}
}
