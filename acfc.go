package acfc

import (
	"repro/internal/acm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/meta"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The core simulation surface. These aliases are the library's public API;
// the internal packages hold the implementations.
type (
	// System is one simulated machine: CPU, disks, file system, buffer
	// cache, ACM, and the processes running on it.
	System = core.System
	// Config describes a machine; see DefaultConfig.
	Config = core.Config
	// Proc is a simulated process with the read/write and fbehavior
	// system-call surface.
	Proc = core.Proc
	// ProcStats are the per-process counters (block I/Os, hits, misses).
	ProcStats = core.ProcStats
	// File is a simulated file.
	File = fs.File
	// FileID names a file for the cache.
	FileID = fs.FileID
	// Time is virtual time in microseconds.
	Time = sim.Time
	// Policy is a per-priority-level replacement policy (LRU or MRU).
	Policy = acm.Policy
	// Alloc selects the kernel's global allocation policy.
	Alloc = cache.Alloc
	// Geometry describes a disk model.
	Geometry = disk.Geometry
	// BlockID names one cached block.
	BlockID = cache.BlockID
	// CacheStats are the buffer cache's aggregate counters.
	CacheStats = cache.Stats
	// TraceEvent is one block access delivered to Config.Trace.
	TraceEvent = core.TraceEvent
	// Access is who accessed which block, and how; TraceEvent embeds it.
	Access = core.Access
	// Manager is a process's ACM manager (Proc.Manager).
	Manager = acm.Manager
	// Sched selects the disk drivers' scheduling (Config.DiskSched).
	Sched = disk.Sched
	// Disk is one simulated drive (System.Disk).
	Disk = disk.Disk
	// DiskStats are one drive's counters.
	DiskStats = disk.Stats
	// InodeCache is the separate metadata cache (System.InodeCache).
	InodeCache = meta.Cache
	// MetaStats are the inode cache's counters.
	MetaStats = meta.Stats
)

// Disk scheduling disciplines for Config.DiskSched.
const (
	// CLOOK is the BSD disksort elevator (the default).
	CLOOK = disk.CLOOK
	// FIFO serves requests in arrival order (for ablations).
	FIFO = disk.FIFO
)

// Replacement policies for SetPolicy.
const (
	LRU = acm.LRU
	MRU = acm.MRU
)

// Kernel allocation policies for Config.Alloc.
const (
	// GlobalLRU is the original kernel: plain global LRU, no
	// application control.
	GlobalLRU = cache.GlobalLRU
	// LRUSP is the paper's policy: LRU with swapping and placeholders.
	LRUSP = cache.LRUSP
	// LRUS is LRU-SP without placeholders (Table 1's "unprotected").
	LRUS = cache.LRUS
	// AllocLRU is two-level replacement without swapping or
	// placeholders (Figure 6's baseline).
	AllocLRU = cache.AllocLRU
)

// BlockSize is the file-system block size (8 KB).
const BlockSize = core.BlockSize

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Disk models from the paper's testbed.
var (
	RZ56 = disk.RZ56
	RZ26 = disk.RZ26
)

// Workload is one of the paper's benchmark applications; Launch runs one
// on a system.
type Workload = workload.App

// Mode selects how a workload treats the cache-control interface:
// Oblivious issues no fbehavior calls, Smart applies the paper's policy
// for that application, Foolish (ReadN only) applies a deliberately bad
// one.
type Mode = workload.Mode

// Workload modes.
const (
	Oblivious = workload.Oblivious
	Smart     = workload.Smart
	Foolish   = workload.Foolish
)

// The paper's Section 5 applications.
var (
	Cscope1      = workload.Cscope1      // cs1: symbol queries, 9 MB database
	Cscope2      = workload.Cscope2      // cs2: text queries, 18 MB package
	Cscope3      = workload.Cscope3      // cs3: text queries, 10 MB package
	Dinero       = workload.Dinero       // din: cache simulator over an 8 MB trace
	Glimpse      = workload.Glimpse      // gli: text retrieval, 2 MB index + 40 MB articles
	LinkEditor   = workload.LinkEditor   // ldk: linking the kernel from 25 MB of objects
	PostgresJoin = workload.PostgresJoin // pjn: indexed join on the Wisconsin benchmark
	SortBench    = workload.Sort         // sort: 17 MB external sort
)

// ReadN builds the synthetic probe of Section 6: it reads groups of n
// blocks five times each across a file of fileBlocks blocks on the given
// disk.
func ReadN(n, fileBlocks int32, disk int) Workload { return workload.ReadN(n, fileBlocks, disk) }

// Read300 is the paper's background process (N=300 over 1310 blocks).
func Read300(disk int) Workload { return workload.Read300(disk) }

// Launch prepares a workload's files and spawns a process running it.
func Launch(sys *System, w Workload, mode Mode) *Proc { return workload.Launch(sys, w, mode) }

// NewSystem builds a simulated machine.
func NewSystem(cfg Config) *System { return core.NewSystem(cfg) }

// DefaultConfig is the paper's machine: 6.4 MB cache, LRU-SP allocation,
// one RZ56 and one RZ26 on a shared SCSI bus, DEC 5000/240-class CPU
// costs, single-block read-ahead, and a 30-second update daemon.
func DefaultConfig() Config { return core.DefaultConfig() }

// MB converts binary megabytes to bytes for Config.CacheBytes.
func MB(mb float64) int64 { return core.MB(mb) }
