package sim

import "fmt"

// Resource models a single server with a FIFO queue (for example a CPU, a
// SCSI bus, or a disk arm). A process uses the resource by calling Use with
// a service duration: the request begins when the server frees up and the
// process sleeps until its own service completes. Because requests are
// granted in call order, this is exactly an M/G/1-style FCFS queue over
// virtual time, without needing an explicit server process.
type Resource struct {
	eng       *Engine
	name      string
	busyUntil Time
	busyTotal Time // accumulated service time
	requests  int64
	waitTotal Time // accumulated queueing delay
}

// NewResource returns a named FCFS resource.
func (e *Engine) NewResource(name string) *Resource {
	return &Resource{eng: e, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Use enqueues a request of the given service duration on behalf of p and
// blocks p until the request completes. It returns the virtual times at
// which service started and ended.
func (r *Resource) Use(p *Proc, service Time) (start, end Time) {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %v on %s", service, r.name))
	}
	start, end = r.Reserve(service)
	p.SleepUntil(end)
	return start, end
}

// Reserve books service time on the resource without blocking: the request
// is appended to the queue and the completion time returned. Callers that
// need to overlap several reservations (for example a disk transfer that
// also holds the bus) reserve first and sleep on the latest completion.
func (r *Resource) Reserve(service Time) (start, end Time) {
	now := r.eng.now
	start = r.busyUntil
	if start < now {
		start = now
	}
	end = start + service
	r.busyUntil = end
	r.busyTotal += service
	r.waitTotal += start - now
	r.requests++
	return start, end
}

// Stats reports aggregate counters for the resource.
func (r *Resource) Stats() ResourceStats {
	return ResourceStats{
		Name:      r.name,
		Requests:  r.requests,
		BusyTotal: r.busyTotal,
		WaitTotal: r.waitTotal,
	}
}

// ResourceStats is a snapshot of resource counters.
type ResourceStats struct {
	Name      string
	Requests  int64
	BusyTotal Time // total service time delivered
	WaitTotal Time // total time requests spent queued before service
}

// Utilization reports the fraction of the interval [0, now] the resource
// spent busy.
func (s ResourceStats) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(s.BusyTotal) / float64(now)
}
