package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// batchStore is what both of the repository's stores are: the server
// only vectors fills and write-backs over a store that has the batch
// methods, so the wrapper must have them too or tracing would change
// what it measures.
type batchStore interface {
	disk.Store
	disk.BatchStore
}

// storeSpan is one traced call into the store. Times are ns since the
// process's epoch.
type storeSpan struct {
	Write  bool             `json:"write"`
	Blocks []disk.BlockSpan `json:"blocks"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Err    bool             `json:"err"`
}

// storeCounts is the wrapper's running totals; a window's share is the
// difference of two snapshots.
type storeCounts struct {
	readCalls, readBlocks   int64
	writeCalls, writeBlocks int64
	readBusy, writeBusy     int64 // ns inside the store, summed over calls
	errors                  int64
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{
		a.readCalls - b.readCalls, a.readBlocks - b.readBlocks,
		a.writeCalls - b.writeCalls, a.writeBlocks - b.writeBlocks,
		a.readBusy - b.readBusy, a.writeBusy - b.writeBusy,
		a.errors - b.errors,
	}
}

// timedStore wraps the store a server is given and times every call
// from outside: the disk layer's span boundary. Counting and timing are
// always on (two clock reads a call); spans and the per-call histogram
// are kept only while tracing.
type timedStore struct {
	inner batchStore
	epoch time.Time

	mu       sync.Mutex
	counts   storeCounts
	tracing  bool
	spans    []storeSpan
	readCall hist // duration of each read call while tracing

	// A slow store's disk arm; see seek.
	lat    atomic.Int64 // ns a call costs; 0: the store is fast
	armMu  sync.Mutex
	freeAt time.Time   // when the arm has served every call so far
	alarms chan *alarm // idle alarms, for calls to sleep on
}

func newTimedStore(inner batchStore, epoch time.Time) *timedStore {
	return &timedStore{inner: inner, epoch: epoch, alarms: make(chan *alarm, 16)}
}

// setLatency makes every call from now on cost lat of the arm's time; 0
// makes the store fast again.
func (t *timedStore) setLatency(lat time.Duration) { t.lat.Store(int64(lat)) }

// seek charges the disk arm for one call moving n blocks and returns
// when the arm has served it. The arm serves one call at a time, in the
// order they come, lat for a call's first block and a tenth of it for
// each block after: MemStore.SetLatency's model, kept here for two
// reasons. MemStore sleeps on the runtime's timers, which stretch a
// short sleep to anything up to a millisecond depending on how idle the
// process is. And it holds the arm while it sleeps, so every late
// wake-up, which is the host's doing, lengthens the queue behind it.
// Here the arm's time is arithmetic: a call is given its finishing time
// when it arrives and sleeps until then on a timerfd, so the arm is busy
// for exactly what the calls cost, and a late wake-up delays one call
// once.
func (t *timedStore) seek(n int) {
	lat := time.Duration(t.lat.Load())
	if lat == 0 {
		return
	}
	t.armMu.Lock()
	now := time.Now()
	if t.freeAt.Before(now) {
		t.freeAt = now
	}
	t.freeAt = t.freeAt.Add(lat + time.Duration(n-1)*lat/10)
	wait := t.freeAt.Sub(now)
	t.armMu.Unlock()

	var al *alarm
	select {
	case al = <-t.alarms:
	default:
		var err error
		if al, err = newAlarm(); err != nil {
			time.Sleep(wait) // out of descriptors: late beats unserved
			return
		}
	}
	// A failed alarm costs the call its latency, not its result.
	_ = al.sleep(wait)
	select {
	case t.alarms <- al:
	default:
		al.close()
	}
}

func (t *timedStore) snapshot() storeCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// trace turns span recording on or off and returns what was recorded
// since it was last turned on.
func (t *timedStore) trace(on bool) ([]storeSpan, hist) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, readCall := t.spans, t.readCall
	t.tracing, t.spans, t.readCall = on, nil, hist{}
	return spans, readCall
}

func (t *timedStore) record(write bool, blocks []disk.BlockSpan, start time.Time, errs []error) {
	end := time.Now()
	failed := int64(0)
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	busy := int64(end.Sub(start))
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.counts
	if write {
		c.writeCalls++
		c.writeBlocks += int64(len(blocks))
		c.writeBusy += busy
	} else {
		c.readCalls++
		c.readBlocks += int64(len(blocks))
		c.readBusy += busy
	}
	c.errors += failed
	if t.tracing {
		if !write {
			t.readCall.add(busy)
		}
		t.spans = append(t.spans, storeSpan{
			Write:  write,
			Blocks: append([]disk.BlockSpan(nil), blocks...),
			Start:  int64(start.Sub(t.epoch)),
			End:    int64(end.Sub(t.epoch)),
			Err:    failed > 0,
		})
	}
}

func (t *timedStore) ReadBlock(file, blk int32, dst []byte) error {
	start := time.Now()
	t.seek(1)
	err := t.inner.ReadBlock(file, blk, dst)
	t.record(false, []disk.BlockSpan{{File: file, Blk: blk}}, start, []error{err})
	return err
}

func (t *timedStore) WriteBlock(file, blk int32, src []byte) error {
	start := time.Now()
	t.seek(1)
	err := t.inner.WriteBlock(file, blk, src)
	t.record(true, []disk.BlockSpan{{File: file, Blk: blk}}, start, []error{err})
	return err
}

func (t *timedStore) ReadBlocks(specs []disk.BlockSpan, dsts [][]byte) []error {
	start := time.Now()
	t.seek(len(specs))
	errs := t.inner.ReadBlocks(specs, dsts)
	t.record(false, specs, start, errs)
	return errs
}

func (t *timedStore) WriteBlocks(specs []disk.BlockSpan, srcs [][]byte) []error {
	start := time.Now()
	t.seek(len(specs))
	errs := t.inner.WriteBlocks(specs, srcs)
	t.record(true, specs, start, errs)
	return errs
}

func (t *timedStore) Close() error {
	for {
		select {
		case al := <-t.alarms:
			al.close()
		default:
			return t.inner.Close()
		}
	}
}
