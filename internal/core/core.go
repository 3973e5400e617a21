// Package core assembles the full simulated system: the discrete-event
// engine, the CPU, the disks and SCSI bus, the file system, the buffer
// cache (BUF) and the application control module (ACM). It exposes the
// kernel's system-call surface to simulated processes — reads, writes,
// file management and the five fbehavior cache-control operations — and
// collects the per-process statistics the paper reports (block I/Os and
// elapsed time).
package core

import (
	"fmt"
	"math"

	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/meta"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ioPending marks a buffer whose fill I/O has not completed; the elevator
// decides the real completion time, so until then the buffer is busy
// forever as far as Busy() is concerned. The sentinel is defined by the
// cache so it knows not to recycle such a buffer on eviction.
const ioPending = cache.IOPending

// BlockSize is the file-system block size (8 KB, as in Ultrix).
const BlockSize = disk.BlockSize

// The machine the paper measures: a DEC 5000/240 running Ultrix 4.3. Every
// experiment runs on it, so what Config does not vary is stated once here.
const (
	// CPU cost model. syscallCPU is the fixed kernel entry/exit cost of a
	// file operation; copyCPU is the cost of copying one full block to
	// user space (scaled by access size); missCPU is the added kernel cost
	// of handling a miss; fbehaviorCPU prices a cache-control call;
	// nameiCPU is the path-lookup cost of an Open.
	syscallCPU   = 150 * sim.Microsecond
	copyCPU      = 300 * sim.Microsecond
	missCPU      = 1 * sim.Millisecond
	fbehaviorCPU = 60 * sim.Microsecond
	nameiCPU     = 500 * sim.Microsecond

	// fileGapBlocks separates files on disk (inode/fragmentation gap), so
	// crossing a file boundary costs a rotation instead of streaming.
	fileGapBlocks = 2

	// metaCacheEntries sizes the separate in-core inode cache: the ninode
	// default of the era. Metadata I/O is accounted apart from the paper's
	// block-I/O metric, matching the paper's methodology.
	metaCacheEntries = 300

	// The update daemon: every syncInterval it writes back blocks dirty
	// for at least dirtyAge, as Ultrix's update(8) does every 30 seconds.
	syncInterval = 30 * sim.Second
	dirtyAge     = 30 * sim.Second
)

// disks are the paper's drives, one RZ56 and one RZ26 on a shared SCSI
// bus; disk 0 holds files unless a workload says otherwise. Live places
// files on the same pair.
var disks = [...]disk.Geometry{disk.RZ56, disk.RZ26}

// diskBlocks lists the capacities of disks, for the file system.
func diskBlocks() []int {
	caps := make([]int, len(disks))
	for i, g := range disks {
		caps[i] = g.Blocks()
	}
	return caps
}

// Config describes what an experiment varies about the simulated machine.
type Config struct {
	// CacheBytes sizes the buffer cache; the paper's default is 6.4 MB
	// (10% of the workstation's 64 MB).
	CacheBytes int64
	// Alloc is the kernel's global allocation policy.
	Alloc cache.Alloc
	// Seed drives all stochastic components (rotational latencies).
	Seed uint64
	// DiskSched selects the drivers' request scheduling (default: the
	// C-LOOK elevator of BSD disksort; FIFO exists for ablations).
	DiskSched disk.Sched

	// ReadAhead enables sequential read-ahead. ReadAheadDepth is how
	// many blocks ahead the kernel keeps in flight; 0 means 1, the
	// single-block breada read-ahead of Ultrix 4.3. Deeper read-ahead
	// (a modern clustered kernel) also keeps the disk queue primed so
	// the elevator defers asynchronous writes to real pauses — the
	// ablation bench quantifies the difference.
	ReadAhead      bool
	ReadAheadDepth int

	// SpreadSync smooths the update daemon in the style of Mogul's "A
	// better update policy" (cited by the paper): instead of one burst
	// every sync interval, the daemon wakes 30 times per interval and
	// flushes only the aged dirty blocks, spreading write-back load so
	// bursts do not queue behind demand reads.
	SpreadSync bool

	// SharedFiles makes cached-block ownership follow use, so whichever
	// process is actively using a shared file's block applies its policy
	// to it (the paper's Section 8 future work).
	SharedFiles bool

	// UpcallCPU models an upcall/RPC-based control implementation: this
	// much CPU is charged for every replace_block consultation of a
	// manager, standing in for the two context switches of a user-level
	// handler. The paper's in-kernel primitive interface corresponds to
	// 0 (the consultation is a procedure call); the related work it
	// cites paid up to 10% of execution time for upcall-based control.
	UpcallCPU sim.Time

	// Revoke enables the foolish-manager revocation extension.
	Revoke bool

	// Trace, when non-nil, receives every block access (reads and
	// writes, not read-ahead) as it happens. Useful for dumping or
	// characterizing reference streams.
	Trace func(TraceEvent)

	// TraceCtl, when non-nil, receives every successful control-plane
	// operation — fbehavior calls, file creation and removal — as it
	// happens, interleaved in call order with Config.Trace. The two
	// streams together are a complete, replayable record of the run
	// (expt.Record assembles it; acfcd's load generator and the server
	// oracle test replay it over the wire).
	TraceCtl func(CtlEvent)

	// NoSimFastPath forces every virtual-time sleep through the DES
	// event heap and a switch to the engine, disabling the engine's
	// lookahead fast path. Results are identical either way
	// (differential tests prove it); the flag exists for those tests and
	// for isolating the fast path's contribution in benchmarks.
	NoSimFastPath bool
}

// Access is what a replay needs of one block access: who made it, where,
// and whether it wrote. Proc sits in what would be padding: 32 bytes.
type Access struct {
	Off, Size int
	Proc      int32
	File      fs.FileID
	Block     int32
	Write     bool
}

// TraceEvent describes one block access for Config.Trace; a transcript keeps its Access.
type TraceEvent struct {
	Access
	Time sim.Time
	Name string // process name
	Hit  bool
}

// DefaultConfig returns the paper's machine: 6.4 MB cache, LRU-SP, one
// RZ56 and one RZ26, DEC 5000/240-class CPU costs, 30-second update
// daemon, read-ahead on.
func DefaultConfig() Config {
	return Config{
		CacheBytes: MB(6.4), // 819 blocks, as the paper states
		Alloc:      cache.LRUSP,
		Seed:       1,
		ReadAhead:  true,
	}
}

// MB converts binary megabytes to bytes (the paper's 6.4 MB cache is 819
// 8 KB blocks, which is 6.4 * 2^20 / 8192).
func MB(mb float64) int64 { return int64(mb * (1 << 20)) }

// CheckCacheMB rejects a size in megabytes that MB cannot turn into a cache:
// NaN, less than one block, or more bytes than an int64 holds.
func CheckCacheMB(mb float64) error {
	if b := mb * (1 << 20); !(b >= BlockSize && b < math.MaxInt64) {
		return fmt.Errorf("%v MB is not a cache size (want one %d-byte block to under 2^63 bytes)", mb, BlockSize)
	}
	return nil
}

// CacheBlocks returns the cache capacity in blocks.
func (c Config) CacheBlocks() int {
	n := int(c.CacheBytes / BlockSize)
	if n <= 0 {
		n = 1
	}
	return n
}

// System is one simulated machine.
type System struct {
	cfg   Config
	eng   *sim.Engine
	cpu   *sim.Resource
	bus   *disk.Bus
	disks []*disk.Disk
	fsys  *fs.FileSystem
	bc    *cache.Cache
	ctl   *acm.ACM
	inode *meta.Cache
	procs []*Proc
	// lastID is the id of the newest file: the machine numbers its
	// files 1, 2, 3, … in creation order.
	lastID fs.FileID

	// pendingIO maps buffers being filled to the record of the read in
	// flight; freeFills holds the records not in flight, last returned
	// first taken.
	pendingIO map[*cache.Buf]*fill
	freeFills []*fill
}

// fill is one block read in flight: the buffer it fills, the condition its
// waiters sleep on and the completion the disk calls. It is the simulator's
// counterpart of Live's Fill, and it is recycled: startFill takes a record
// from System.freeFills and complete puts it back, so once as many records
// exist as reads are ever in flight together, a miss allocates nothing — no
// condition, no closure, no waiter slice. The free list is a plain slice
// owned by the System, not a sync.Pool: like everything else in a
// simulation, which record a fill gets is a function of the run's inputs,
// not of the garbage collector or of the other simulations in the process.
type fill struct {
	sys  *System
	buf  *cache.Buf
	cond *sim.Cond
	done func(sim.Time) // complete, bound once
}

// NewSystem builds a machine from the config.
func NewSystem(cfg Config) *System {
	s := &System{cfg: cfg, pendingIO: make(map[*cache.Buf]*fill)}
	if cfg.NoSimFastPath {
		s.eng = sim.New(sim.DisableFastPath)
	} else {
		s.eng = sim.New()
	}
	s.cpu = s.eng.NewResource("cpu")
	s.bus = disk.NewBus(s.eng)
	for i, g := range disks {
		d := disk.New(s.eng, g, s.bus, cfg.Seed+uint64(i)*7919)
		d.SetScheduler(cfg.DiskSched)
		s.disks = append(s.disks, d)
	}
	s.fsys = fs.New(fs.Config{DiskBlocks: diskBlocks(), FileGapBlocks: fileGapBlocks})
	s.ctl = acm.New(s.eng.Now, acm.Limits{})
	s.bc = cache.New(cache.Config{
		Capacity:       cfg.CacheBlocks(),
		Alloc:          cfg.Alloc,
		Revoke:         cfg.Revoke,
		SharedTransfer: cfg.SharedFiles,
	}, s.ctl)
	s.inode = meta.New(metaCacheEntries)
	s.startUpdateDaemon()
	return s
}

// InodeCache exposes the metadata cache.
func (s *System) InodeCache() *meta.Cache { return s.inode }

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// SimStats returns the engine's event/handoff counters (meaningful after
// Run).
func (s *System) SimStats() sim.Stats { return s.eng.Stats() }

// FS exposes the file system (for test setup).
func (s *System) FS() *fs.FileSystem { return s.fsys }

// Cache exposes the buffer cache.
func (s *System) Cache() *cache.Cache { return s.bc }

// ACM exposes the application control module.
func (s *System) ACM() *acm.ACM { return s.ctl }

// Disk returns drive i.
func (s *System) Disk(i int) *disk.Disk { return s.disks[i] }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// CreateFile pre-populates a file before the run (no simulated I/O), as
// when a benchmark's input data already exists on disk.
func (s *System) CreateFile(name string, diskIdx, sizeBlocks int) *fs.File {
	f := s.create(name, diskIdx, sizeBlocks)
	s.ctlTraceSys(CtlEvent{Op: CtlCreateFile, File: f.ID(), FileName: name, Disk: diskIdx, Size: sizeBlocks})
	return f
}

// create makes a file under the machine's next id. A simulated workload
// that cannot create its file is a bug in the experiment.
func (s *System) create(name string, d, sizeBlocks int) *fs.File {
	s.lastID++
	f, err := s.fsys.Create(s.lastID, name, d, sizeBlocks)
	if err != nil {
		panic(err)
	}
	return f
}

// startUpdateDaemon arms the Ultrix update(8) analogue: a callback that
// periodically writes back aged dirty blocks and re-arms itself. With
// SpreadSync it fires many times per interval and flushes only what has
// aged, trading Ultrix's write bursts for a steady trickle (Mogul's better
// update policy). The first interval is counted from the first instant of
// the run, after everything the machine's construction scheduled.
func (s *System) startUpdateDaemon() {
	interval := syncInterval
	if s.cfg.SpreadSync {
		interval = syncInterval / 30
	}
	var tick func()
	arm := func() { s.eng.At(s.eng.Now()+interval, tick) }
	tick = func() {
		cutoff := s.eng.Now() - dirtyAge
		for _, b := range s.bc.DirtyOlderThan(cutoff) {
			s.writeBack(b)
		}
		arm()
	}
	s.eng.At(s.eng.Now(), arm)
}

// writeBack issues the asynchronous disk write for a dirty block and
// attributes the I/O to the block's owner.
func (s *System) writeBack(b *cache.Buf) {
	f, ok := s.fsys.ByID(b.ID.File)
	if !ok {
		// File removed; its cache blocks should have been invalidated.
		s.bc.Clean(b)
		return
	}
	d := s.disks[f.Disk()]
	d.Start(disk.Write, f.BlockAddr(int(b.ID.Num)), nil)
	s.bc.Clean(b)
	s.charge(b.Owner, func(st *ProcStats) { st.WriteBacks++ })
}

// flushVictim writes back an evicted dirty block (asynchronously; the
// demand read that triggered the eviction queues behind it when they share
// a disk, which is the latency a real kernel would see).
func (s *System) flushVictim(v *cache.Victim) {
	if v == nil || !v.Dirty {
		return
	}
	f, ok := s.fsys.ByID(v.ID.File)
	if !ok {
		return
	}
	d := s.disks[f.Disk()]
	d.Start(disk.Write, f.BlockAddr(int(v.ID.Num)), nil)
	s.charge(v.Owner, func(st *ProcStats) { st.WriteBacks++ })
}

// startFill issues the disk read that fills buf with block blk of f. The
// buffer stays busy until the elevator finishes the read.
func (s *System) startFill(f *fs.File, buf *cache.Buf, blk int32) {
	buf.ValidAt = ioPending
	var r *fill
	if n := len(s.freeFills); n > 0 {
		r = s.freeFills[n-1]
		s.freeFills = s.freeFills[:n-1]
	} else {
		r = &fill{sys: s, cond: s.eng.NewCond()}
		r.done = r.complete
	}
	r.buf = buf
	s.pendingIO[buf] = r
	s.disks[f.Disk()].Start(disk.Read, f.BlockAddr(int(blk)), r.done)
}

// complete is the disk's completion callback: the buffer turns valid at t,
// its waiters wake, and the record is free again. A woken waiter does not
// look at the record (waitValid re-reads the buffer), so the next fill may
// take it before they run.
func (r *fill) complete(t sim.Time) {
	s := r.sys
	r.buf.ValidAt = t
	delete(s.pendingIO, r.buf)
	r.buf = nil
	r.cond.Broadcast()
	s.freeFills = append(s.freeFills, r)
}

// insertBlock runs the replacement protocol for block id on p's behalf:
// eviction (with write-back of a dirty victim) plus the simulated cost of
// any manager consultation under an upcall-based implementation.
func (s *System) insertBlock(p *Proc, id cache.BlockID) *cache.Buf {
	before := s.bc.Consults()
	buf, victim := s.bc.Insert(id, p.id, p.sp.Now())
	s.flushVictim(victim)
	if s.cfg.UpcallCPU > 0 {
		if consults := s.bc.Consults() - before; consults > 0 {
			s.useCPU(p.sp, sim.Time(consults)*s.cfg.UpcallCPU)
		}
	}
	return buf
}

// waitValid parks p until b's fill I/O has completed.
func (s *System) waitValid(p *Proc, b *cache.Buf) {
	for b.Busy(p.sp.Now()) {
		r := s.pendingIO[b]
		if r == nil {
			p.sp.SleepUntil(b.ValidAt)
			return
		}
		r.cond.Wait(p.sp)
	}
}

// charge applies a stat mutation to a process by owner id, ignoring
// unknown owners.
func (s *System) charge(owner int, f func(*ProcStats)) {
	if owner >= 0 && owner < len(s.procs) {
		f(&s.procs[owner].stats)
	}
}

// Run executes the simulation to completion, then accounts a final sync of
// whatever dirty blocks remain (as the measured runs would flush at exit).
func (s *System) Run() {
	s.eng.Run()
	for _, b := range s.bc.DirtyOlderThan(s.eng.Now()) {
		if _, ok := s.fsys.ByID(b.ID.File); !ok {
			s.bc.Clean(b)
			continue
		}
		s.bc.Clean(b)
		s.charge(b.Owner, func(st *ProcStats) { st.WriteBacks++ })
	}
}

// ProcStats are the per-process counters the experiments report.
type ProcStats struct {
	ReadCalls  int64
	WriteCalls int64
	Hits       int64
	Misses     int64

	DemandReads int64 // disk reads to satisfy this process's misses
	Prefetches  int64 // disk reads issued by read-ahead for this process
	WriteBacks  int64 // disk writes of blocks this process dirtied

	// Metadata traffic, accounted apart from BlockIOs as in the paper.
	Opens         int64
	MetadataReads int64

	FbehaviorCalls int64
	ComputeTime    sim.Time
}

// BlockIOs is the paper's metric: every disk I/O attributable to the
// process.
func (st ProcStats) BlockIOs() int64 {
	return st.DemandReads + st.Prefetches + st.WriteBacks
}

// Add folds o into st, counter for counter (stats.Fold). The sharded
// server uses it to present one per-session view over the per-shard owner
// records.
func (st *ProcStats) Add(o ProcStats) { stats.Fold(st, o) }

// Proc is one simulated application process.
type Proc struct {
	sys      *System
	sp       *sim.Proc
	id       int
	name     string
	mgr      *acm.Manager
	lastRead []int32 // by FileID: the last block read of each file, or noRead
	stats    ProcStats
}

// noRead marks a file the process has not read yet. noRead+1 is not a block
// number, so no access is sequential to it.
const noRead int32 = -2

// Spawn registers a process whose body starts at time zero (or at the
// current virtual time when spawned mid-run).
func (s *System) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		sys:  s,
		id:   len(s.procs),
		name: name,
	}
	s.procs = append(s.procs, p)
	p.sp = s.eng.Spawn(name, func(*sim.Proc) { body(p) })
	return p
}

// Procs returns all spawned processes in spawn order.
func (s *System) Procs() []*Proc { return s.procs }

// ID returns the process id (also its cache owner id).
func (p *Proc) ID() int { return p.id }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Stats returns a snapshot of the process counters.
func (p *Proc) Stats() ProcStats { return p.stats }

// Elapsed returns the process's virtual running time (valid after Run).
func (p *Proc) Elapsed() sim.Time { return p.sp.Elapsed() }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// trace reports one access to the configured trace hook.
func (p *Proc) trace(f *fs.File, blk int32, off, size int, write, hit bool) {
	if t := p.sys.cfg.Trace; t != nil {
		t(TraceEvent{
			Access: Access{Proc: int32(p.id), File: f.ID(), Block: blk, Off: off, Size: size, Write: write},
			Time:   p.sp.Now(), Name: p.name, Hit: hit,
		})
	}
}

// Compute charges d of application CPU time (contending with other
// processes for the single CPU).
func (p *Proc) Compute(d sim.Time) {
	p.stats.ComputeTime += d
	p.sys.useCPU(p.sp, d)
}

// useCPU charges CPU time in 2 ms chunks so that concurrent processes
// share the processor round-robin style instead of FCFS on whole compute
// bursts: a process never waits for more than roughly one quantum of
// another process's computation. The small quantum approximates the Unix
// scheduler's priority boost for I/O-bound processes, which lets them
// preempt CPU-bound neighbours almost immediately.
func (s *System) useCPU(sp *sim.Proc, d sim.Time) {
	const q = 2 * sim.Millisecond
	for d > q {
		s.cpu.Use(sp, q)
		d -= q
	}
	if d > 0 {
		s.cpu.Use(sp, d)
	}
}

// --- file management ---

// CreateFile creates a file on disk d, initially empty unless sizeBlocks
// is positive. The fresh inode is in core by construction.
func (p *Proc) CreateFile(name string, d, sizeBlocks int) *fs.File {
	f := p.sys.create(name, d, sizeBlocks)
	p.sys.inode.Prime(f.ID())
	p.ctlTrace(CtlEvent{Op: CtlCreateFile, File: f.ID(), FileName: name, Disk: d, Size: sizeBlocks})
	p.sys.useCPU(p.sp, syscallCPU)
	return f
}

// Open models opening a file: the namei path lookup plus an inode fetch.
// An in-core inode is free; a miss reads the inode block from disk (the
// gap ahead of the file's first data block, where FFS keeps it). Metadata
// reads are counted apart from the paper's block-I/O metric, matching its
// methodology.
func (p *Proc) Open(f *fs.File) {
	p.stats.Opens++
	p.sys.useCPU(p.sp, nameiCPU)
	if p.sys.inode.Lookup(f.ID()) {
		return
	}
	p.stats.MetadataReads++
	if f.Size() == 0 {
		return
	}
	addr := f.BlockAddr(0)
	if addr > 0 {
		addr-- // the inode lives in the gap ahead of the file
	}
	d := p.sys.disks[f.Disk()]
	d.Access(p.sp, disk.Read, addr)
}

// RemoveFile unlinks a file; its cached blocks (dirty or not) are
// discarded without I/O, as for an unlinked temporary file.
func (p *Proc) RemoveFile(f *fs.File) {
	p.sys.inode.Invalidate(f.ID())
	p.sys.bc.InvalidateFile(f.ID())
	p.sys.ctl.FileGone(f.ID())
	if err := p.sys.fsys.Remove(f.Name()); err != nil {
		panic(err)
	}
	p.ctlTrace(CtlEvent{Op: CtlRemoveFile, File: f.ID(), FileName: f.Name()})
	if id := int(f.ID()); id < len(p.lastRead) {
		p.lastRead[id] = noRead
	}
	p.sys.useCPU(p.sp, syscallCPU)
}

// --- the read/write syscall surface ---

// Access reads size bytes at offset off within block blk of f: the
// fundamental cache operation. Partial accesses cost proportionally less
// copy time; lots of small accesses to one block hit the cache after the
// first touch.
func (p *Proc) Access(f *fs.File, blk int32, off, size int) {
	if int(blk) >= f.Size() {
		panic(fmt.Sprintf("core: %s reads block %d beyond %q (size %d)", p.name, blk, f.Name(), f.Size()))
	}
	p.stats.ReadCalls++
	id := cache.BlockID{File: f.ID(), Num: blk}
	cpuCost := syscallCPU + sim.Time(int64(copyCPU)*int64(size)/BlockSize)
	if b := p.sys.bc.LookupBy(id, p.id, off, size); b != nil {
		p.stats.Hits++
		p.trace(f, blk, off, size, false, true)
		p.sys.waitValid(p, b) // a read-ahead may still be in flight
		p.sys.useCPU(p.sp, cpuCost)
		p.noteSequential(f, blk)
		return
	}
	p.stats.Misses++
	p.trace(f, blk, off, size, false, false)
	buf := p.sys.insertBlock(p, id)
	buf.Referenced = true
	p.sys.startFill(f, buf, blk)
	p.stats.DemandReads++
	p.sys.useCPU(p.sp, cpuCost+missCPU)
	p.noteSequential(f, blk)
	p.sys.waitValid(p, buf)
}

// Read reads one whole block.
func (p *Proc) Read(f *fs.File, blk int32) { p.Access(f, blk, 0, BlockSize) }

// ReadSeq reads blocks [from, to) in order.
func (p *Proc) ReadSeq(f *fs.File, from, to int32) {
	for b := from; b < to; b++ {
		p.Read(f, b)
	}
}

// noteSequential updates the per-file sequential detector and issues
// read-ahead once two consecutive blocks have been read, keeping up to
// ReadAheadDepth blocks in flight.
func (p *Proc) noteSequential(f *fs.File, blk int32) {
	// File ids are handed out densely from 1 and never reused.
	id := int(f.ID())
	for id >= len(p.lastRead) {
		p.lastRead = append(p.lastRead, noRead)
	}
	last := p.lastRead[id]
	p.lastRead[id] = blk
	if !p.sys.cfg.ReadAhead || blk != last+1 {
		return
	}
	depth := p.sys.cfg.ReadAheadDepth
	if depth <= 0 {
		depth = 1
	}
	for i := int32(1); i <= int32(depth); i++ {
		next := blk + i
		if int(next) >= f.Size() {
			return
		}
		id := cache.BlockID{File: f.ID(), Num: next}
		if p.sys.bc.Peek(id) != nil {
			continue
		}
		buf := p.sys.insertBlock(p, id)
		p.sys.startFill(f, buf, next)
		p.stats.Prefetches++
		// Issuing the read-ahead costs the same kernel work as any miss.
		p.sys.useCPU(p.sp, missCPU)
	}
}

// WriteAccess writes size bytes at offset off within block blk of f,
// growing the file as needed. A partial write to an uncached block is a
// read-modify-write: the block must come in from disk before the bytes
// land. Whole-block writes (Write) skip the read.
func (p *Proc) WriteAccess(f *fs.File, blk int32, off, size int) {
	if off == 0 && size >= BlockSize {
		p.Write(f, blk)
		return
	}
	p.stats.WriteCalls++
	grew := false
	if int(blk) >= f.Size() {
		if err := p.sys.fsys.Grow(f, int(blk)+1); err != nil {
			panic(err)
		}
		grew = true
	}
	id := cache.BlockID{File: f.ID(), Num: blk}
	b := p.sys.bc.LookupBy(id, p.id, off, size)
	if b != nil {
		p.stats.Hits++
		p.trace(f, blk, off, size, true, true)
		p.sys.waitValid(p, b)
	} else {
		p.stats.Misses++
		p.trace(f, blk, off, size, true, false)
		b = p.sys.insertBlock(p, id)
		b.Referenced = true
		if !grew {
			// Read-modify-write: fetch the rest of the block first.
			p.sys.startFill(f, b, blk)
			p.stats.DemandReads++
		}
	}
	cpuCost := syscallCPU + sim.Time(int64(copyCPU)*int64(size)/BlockSize)
	p.sys.useCPU(p.sp, cpuCost+missCPU)
	p.sys.waitValid(p, b)
	p.sys.bc.MarkDirty(b, p.sp.Now())
}

// Write writes one whole block of f, growing the file as needed. Whole-
// block writes allocate a buffer without reading (write-behind: the disk
// write happens at eviction or via the update daemon).
func (p *Proc) Write(f *fs.File, blk int32) {
	p.stats.WriteCalls++
	if int(blk) >= f.Size() {
		if err := p.sys.fsys.Grow(f, int(blk)+1); err != nil {
			panic(err)
		}
	}
	id := cache.BlockID{File: f.ID(), Num: blk}
	b := p.sys.bc.LookupBy(id, p.id, 0, BlockSize)
	if b != nil {
		p.stats.Hits++
		p.trace(f, blk, 0, BlockSize, true, true)
		p.sys.waitValid(p, b)
	} else {
		p.stats.Misses++
		p.trace(f, blk, 0, BlockSize, true, false)
		b = p.sys.insertBlock(p, id)
		b.Referenced = true
	}
	p.sys.bc.MarkDirty(b, p.sp.Now())
	p.sys.useCPU(p.sp, syscallCPU+copyCPU)
}

// WriteSeq writes blocks [from, to) in order.
func (p *Proc) WriteSeq(f *fs.File, from, to int32) {
	for b := from; b < to; b++ {
		p.Write(f, b)
	}
}

// --- the fbehavior cache-control surface ---

// EnableControl registers this process as a cache manager.
func (p *Proc) EnableControl() error {
	if p.mgr != nil {
		return fmt.Errorf("core: %s already controls its cache", p.name)
	}
	m, err := p.sys.ctl.CreateManager(p.id)
	if err != nil {
		return err
	}
	p.mgr = m
	p.ctlTrace(CtlEvent{Op: CtlControl, Enable: true})
	p.fbCharge()
	return nil
}

// DisableControl withdraws cache control.
func (p *Proc) DisableControl() {
	if p.mgr == nil {
		return
	}
	p.sys.ctl.DestroyManager(p.id)
	p.mgr = nil
	p.ctlTrace(CtlEvent{Op: CtlControl, Enable: false})
	p.fbCharge()
}

// Controlled reports whether the process manages its own cache.
func (p *Proc) Controlled() bool { return p.mgr != nil }

// Manager exposes the ACM manager (nil when not controlling).
func (p *Proc) Manager() *acm.Manager { return p.mgr }

func (p *Proc) fbCharge() {
	p.stats.FbehaviorCalls++
	p.sys.useCPU(p.sp, fbehaviorCPU)
}

func (p *Proc) requireMgr(call string) *acm.Manager {
	if p.mgr == nil {
		panic(fmt.Sprintf("core: %s called %s without EnableControl", p.name, call))
	}
	return p.mgr
}

// SetPriority sets the long-term cache priority of a file.
func (p *Proc) SetPriority(f *fs.File, prio int) error {
	m := p.requireMgr("set_priority")
	p.fbCharge()
	err := m.SetPriority(f.ID(), prio)
	if err == nil {
		p.ctlTrace(CtlEvent{Op: CtlSetPriority, File: f.ID(), FileName: f.Name(), Prio: prio})
	}
	return err
}

// GetPriority reads the long-term cache priority of a file.
func (p *Proc) GetPriority(f *fs.File) int {
	m := p.requireMgr("get_priority")
	p.fbCharge()
	return m.Priority(f.ID())
}

// SetPolicy sets the replacement policy of a priority level.
func (p *Proc) SetPolicy(prio int, pol acm.Policy) error {
	m := p.requireMgr("set_policy")
	p.fbCharge()
	err := m.SetPolicy(prio, pol)
	if err == nil {
		p.ctlTrace(CtlEvent{Op: CtlSetPolicy, Prio: prio, Policy: pol})
	}
	return err
}

// GetPolicy reads the replacement policy of a priority level.
func (p *Proc) GetPolicy(prio int) acm.Policy {
	m := p.requireMgr("get_policy")
	p.fbCharge()
	return m.PolicyOf(prio)
}

// SetTempPri assigns a temporary priority to the cached blocks of f in
// [startBlk, endBlk].
func (p *Proc) SetTempPri(f *fs.File, startBlk, endBlk int32, prio int) error {
	m := p.requireMgr("set_temppri")
	p.fbCharge()
	err := m.SetTempPri(p.sys.bc, f.ID(), startBlk, endBlk, prio)
	if err == nil {
		p.ctlTrace(CtlEvent{Op: CtlSetTempPri, File: f.ID(), FileName: f.Name(), Start: startBlk, End: endBlk, Prio: prio})
	}
	return err
}
