// Package disk models SCSI disks of the kind used in the paper's testbed
// (DEC RZ56 and RZ26 drives sharing one SCSI bus). The model captures the
// first-order costs that shaped the paper's elapsed-time results: seek time
// proportional to arm travel, rotational latency, media transfer rate,
// C-LOOK request scheduling at each drive (the BSD/Ultrix disksort()
// elevator), bus contention between drives, and the large discount for
// sequential access (track-buffer streaming).
//
// Each disk drains a request queue in elevator order, so asynchronous writes
// naturally batch into sorted sweeps during gaps in the read stream, exactly
// as the real driver behaved. A disk is not a simulated process: it is a
// state machine of engine callbacks (sim.Engine.At), one step per wait.
//
// All timing is in virtual time; the actual block contents are never
// stored — the simulation traffics in block addresses only.
package disk

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// BlockSize is the file-system block size in bytes, as in Ultrix UFS on the
// paper's machines.
const BlockSize = 8192

// Geometry describes a disk model. Times are average figures from the
// drive's data sheet; the paper quotes them in Section 5.2.
type Geometry struct {
	Name        string
	CapacityMB  int     // formatted capacity
	Cylinders   int     // seek distance domain
	MinSeekMS   float64 // single-cylinder (track-to-track) seek
	AvgSeekMS   float64 // average seek, as quoted by the paper
	AvgRotMS    float64 // average rotational latency = half a revolution
	TransferMBs float64 // peak media transfer rate, MB/s
	TrackBlocks int     // file-system blocks per track (sequential-run cost)
	// SeqEfficiency is the fraction of the peak rate a sequential file
	// read actually achieves through the file system (block interleave,
	// fragment layout, per-block kernel latency between requests). UFS
	// on drives of this era delivered roughly half of the data sheet's
	// peak. 0 means 0.55.
	SeqEfficiency float64
}

// seqEff returns the effective sequential efficiency.
func (g Geometry) seqEff() float64 {
	if g.SeqEfficiency > 0 {
		return g.SeqEfficiency
	}
	return 0.55
}

// RZ56 is the 665 MB drive used for cs1-3, din, gli and ldk: average seek
// 16 ms, average rotational latency 8.3 ms, peak transfer 1.875 MB/s.
var RZ56 = Geometry{
	Name:        "RZ56",
	CapacityMB:  665,
	Cylinders:   1632,
	MinSeekMS:   3.0,
	AvgSeekMS:   16.0,
	AvgRotMS:    8.3,
	TransferMBs: 1.875,
	TrackBlocks: 4,
}

// RZ26 is the 1.05 GB drive used for pjn and sort: average seek 10.5 ms,
// average rotational latency 5.54 ms, peak transfer 3.3 MB/s.
var RZ26 = Geometry{
	Name:        "RZ26",
	CapacityMB:  1050,
	Cylinders:   2570,
	MinSeekMS:   2.5,
	AvgSeekMS:   10.5,
	AvgRotMS:    5.54,
	TransferMBs: 3.3,
	TrackBlocks: 4,
}

// Blocks returns the number of file-system blocks the disk holds.
func (g Geometry) Blocks() int {
	return g.CapacityMB * (1 << 20) / BlockSize
}

// transferTime returns the media transfer time for one block.
func (g Geometry) transferTime() sim.Time {
	return sim.FromSeconds(float64(BlockSize) / (g.TransferMBs * 1e6))
}

// maxSeekMS derives the full-stroke seek from the average under the
// square-root seek model: for uniformly random cylinder distances,
// E[sqrt(d/D)] = 2/3, so max = min + (avg-min)*3/2.
func (g Geometry) maxSeekMS() float64 {
	return g.MinSeekMS + (g.AvgSeekMS-g.MinSeekMS)*1.5
}

// Op distinguishes reads from writes on the disk.
type Op int

// Disk operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Sched selects the driver's request scheduling discipline.
type Sched int

// Scheduling disciplines.
const (
	// CLOOK is the BSD disksort elevator: requests serve in ascending
	// address order with wrap-around. The default.
	CLOOK Sched = iota
	// FIFO serves requests strictly in arrival order, as primitive
	// drivers did; it exists for ablations of scheduling effects.
	FIFO
)

func (s Sched) String() string {
	if s == FIFO {
		return "fifo"
	}
	return "c-look"
}

// Bus is the shared SCSI bus connecting disks to the host. Transfers from
// all disks serialize over it.
type Bus struct {
	res *sim.Resource
}

// NewBus returns a SCSI bus for the engine.
func NewBus(eng *sim.Engine) *Bus {
	return &Bus{res: eng.NewResource("scsi-bus")}
}

// Stats returns bus counters.
func (b *Bus) Stats() sim.ResourceStats { return b.res.Stats() }

// request is one queued block operation.
type request struct {
	op      Op
	addr    int
	seq     uint64
	arrived sim.Time
	onDone  func(sim.Time)
}

// Disk is one simulated drive: a request queue drained in C-LOOK order by
// three callbacks that schedule one another — begin, positioned, complete.
type Disk struct {
	eng          *sim.Engine
	geom         Geometry
	bus          *Bus
	rng          *sim.Rand
	transfer     sim.Time
	minSeek      sim.Time
	maxSeek      sim.Time
	fullRev      sim.Time
	blocksPerCyl int

	queue []request
	seq   uint64
	sched Sched

	// The request in service. busy holds from the enqueue that finds the
	// drive idle until complete finds the queue empty.
	busy    bool
	cur     request
	started sim.Time // when begin picked cur
	// The steps as func values, made once so scheduling one allocates
	// nothing.
	beginFn, positionedFn, completeFn func()

	lastAddr int // address of the last block accessed, -1 initially
	headCyl  int

	freeSync []*syncOp // Access's records not in use

	stats Stats
}

// syncOp is one synchronous operation in flight: the condition the caller
// sleeps on and where the completion leaves its time. Access recycles the
// records through Disk.freeSync — a plain slice, so which record a call gets
// is deterministic — and a synchronous read allocates nothing once one
// exists per concurrent caller.
type syncOp struct {
	cond     *sim.Cond
	when     sim.Time
	finished bool
	done     func(sim.Time) // complete, bound once
}

func (o *syncOp) complete(t sim.Time) {
	o.when = t
	o.finished = true
	o.cond.Broadcast()
}

// Stats aggregates per-disk counters.
type Stats struct {
	Reads      int64
	Writes     int64
	Sequential int64 // accesses that streamed without a seek
	RandomAcc  int64 // accesses that paid seek + rotation
	BusyTotal  sim.Time
	WaitTotal  sim.Time // request queueing delay: arrival until service begins
	MaxQueue   int
}

// IOs returns total block operations.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// New returns a disk with the given geometry attached to the bus. The seed
// feeds the rotational-latency generator; equal seeds give identical runs.
func New(eng *sim.Engine, geom Geometry, bus *Bus, seed uint64) *Disk {
	if geom.TrackBlocks <= 0 {
		panic(fmt.Sprintf("disk: geometry %s has no track size", geom.Name))
	}
	d := &Disk{
		eng:      eng,
		geom:     geom,
		bus:      bus,
		rng:      sim.NewRand(seed),
		transfer: geom.transferTime(),
		minSeek:  sim.FromMillis(geom.MinSeekMS),
		maxSeek:  sim.FromMillis(geom.maxSeekMS()),
		fullRev:  sim.FromMillis(2 * geom.AvgRotMS),
		lastAddr: -1,
	}
	d.blocksPerCyl = max(1, geom.Blocks()/geom.Cylinders)
	d.beginFn, d.positionedFn, d.completeFn = d.begin, d.positioned, d.complete
	return d
}

// Geometry returns the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// SetScheduler selects the request scheduling discipline (default CLOOK).
// Call before the simulation starts.
func (d *Disk) SetScheduler(s Sched) { d.sched = s }

// Scheduler returns the discipline in force.
func (d *Disk) Scheduler() Sched { return d.sched }

// Stats returns a snapshot of the disk counters.
func (d *Disk) Stats() Stats { return d.stats }

// QueueLen reports the number of requests waiting (not including the one
// in service).
func (d *Disk) QueueLen() int { return len(d.queue) }

// cylOf maps a block address to its cylinder.
func (d *Disk) cylOf(addr int) int {
	c := addr / d.blocksPerCyl
	if c >= d.geom.Cylinders {
		c = d.geom.Cylinders - 1
	}
	return c
}

// seekTime models arm travel with the standard square-root profile.
func (d *Disk) seekTime(fromCyl, toCyl int) sim.Time {
	dist := fromCyl - toCyl
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := math.Sqrt(float64(dist) / float64(d.geom.Cylinders-1))
	return d.minSeek + sim.Time(frac*float64(d.maxSeek-d.minSeek))
}

// serviceTime computes positioning plus transfer cost for one block at
// addr, updating head state. A request for the block immediately after the
// previous one streams from the track buffer: no seek, no rotational
// latency, just the effective transfer (plus a track-switch hiccup at
// track boundaries).
func (d *Disk) serviceTime(addr int) sim.Time {
	sequential := addr == d.lastAddr+1
	cyl := d.cylOf(addr)
	var t sim.Time
	if sequential {
		d.stats.Sequential++
		t = sim.Time(float64(d.transfer) / d.geom.seqEff())
		if addr%d.geom.TrackBlocks == 0 {
			// Head/track switch: brief settle plus rotational slip.
			t += d.minSeek / 2
		}
	} else {
		d.stats.RandomAcc++
		t = d.seekTime(d.headCyl, cyl) + d.rng.Duration(d.fullRev) + d.transfer
	}
	d.lastAddr = addr
	d.headCyl = cyl
	return t
}

// enqueue validates and queues a request, starting the drive if it is idle.
func (d *Disk) enqueue(op Op, addr int, onDone func(sim.Time)) {
	if addr < 0 || addr >= d.geom.Blocks() {
		panic(fmt.Sprintf("disk %s: %v of block %d out of range [0,%d)", d.geom.Name, op, addr, d.geom.Blocks()))
	}
	d.seq++
	now := d.eng.Now()
	d.queue = append(d.queue, request{op: op, addr: addr, seq: d.seq, arrived: now, onDone: onDone})
	if len(d.queue) > d.stats.MaxQueue {
		d.stats.MaxQueue = len(d.queue)
	}
	if !d.busy {
		// Service begins at this instant but after whatever is already
		// scheduled for it, so requests queued by the same caller in the
		// same instant are all in the queue when the elevator picks.
		d.busy = true
		d.eng.At(now, d.beginFn)
	}
}

// Start queues an asynchronous operation; onDone (optional) runs at
// completion with the completion time.
func (d *Disk) Start(op Op, addr int, onDone func(sim.Time)) {
	d.enqueue(op, addr, onDone)
}

// Access performs a synchronous operation: the calling process sleeps
// until the block operation completes, and the completion time is
// returned.
func (d *Disk) Access(p *sim.Proc, op Op, addr int) sim.Time {
	var o *syncOp
	if n := len(d.freeSync); n > 0 {
		o = d.freeSync[n-1]
		d.freeSync = d.freeSync[:n-1]
	} else {
		o = &syncOp{cond: d.eng.NewCond()}
		o.done = o.complete
	}
	o.finished = false
	d.enqueue(op, addr, o.done)
	if !o.finished {
		o.cond.Wait(p)
	}
	d.freeSync = append(d.freeSync, o)
	return o.when
}

// pickNext chooses the next request per the scheduling discipline: FIFO
// takes the oldest; C-LOOK (the BSD disksort elevator) serves the request
// with the smallest address at or beyond the head, wrapping to the lowest
// address when none is ahead. Ties break by arrival order.
func (d *Disk) pickNext() int {
	if d.sched == FIFO {
		oldest := 0
		for i := range d.queue {
			if d.queue[i].seq < d.queue[oldest].seq {
				oldest = i
			}
		}
		return oldest
	}
	head := d.lastAddr + 1
	best, bestWrap := -1, -1
	for i := range d.queue {
		r := &d.queue[i]
		if r.addr >= head {
			if best == -1 || less(r, &d.queue[best]) {
				best = i
			}
		} else if bestWrap == -1 || less(r, &d.queue[bestWrap]) {
			bestWrap = i
		}
	}
	if best != -1 {
		return best
	}
	return bestWrap
}

// less orders requests by (addr, arrival).
func less(a, b *request) bool {
	if a.addr != b.addr {
		return a.addr < b.addr
	}
	return a.seq < b.seq
}

// begin starts service of the next request: pick by elevator and position
// the arm.
func (d *Disk) begin() {
	i := d.pickNext()
	d.cur = d.queue[i]
	d.queue = slices.Delete(d.queue, i, i+1)

	now := d.eng.Now()
	d.started = now
	d.stats.WaitTotal += now - d.cur.arrived
	if position := d.serviceTime(d.cur.addr) - d.transfer; position > 0 {
		d.eng.At(now+position, d.positionedFn)
	} else {
		d.positioned()
	}
}

// positioned runs with the head over the block: the final block transfer
// serializes over the shared bus.
func (d *Disk) positioned() {
	_, busEnd := d.bus.res.Reserve(d.transfer)
	d.eng.At(busEnd, d.completeFn)
}

// complete finishes the request in service and begins the next, or leaves
// the drive idle. A request onDone queues is in the queue by then.
func (d *Disk) complete() {
	req := d.cur
	d.cur = request{} // do not hold the callback past its call
	now := d.eng.Now()
	if req.op == Read {
		d.stats.Reads++
	} else {
		d.stats.Writes++
	}
	d.stats.BusyTotal += now - d.started
	if req.onDone != nil {
		req.onDone(now)
	}
	if len(d.queue) > 0 {
		d.begin()
	} else {
		d.busy = false
	}
}
