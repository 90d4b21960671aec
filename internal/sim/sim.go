// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulated entities ("procs") run as goroutines that execute in strict
// lockstep with the scheduler: at any instant exactly one goroutine — the
// scheduler or a single proc — is active. Procs advance simulated time by
// blocking on kernel primitives (Sleep, WaitQueue, Resource); the scheduler
// pops the earliest pending event, advances the virtual clock, and resumes
// the corresponding proc. Because execution is serialized and all randomness
// flows through the kernel's seeded RNG, a simulation with a given seed and
// configuration reproduces identical results on every run.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulated time in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// DurationOf converts a floating-point number of seconds to a Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

// Sim is a discrete-event simulation instance.
type Sim struct {
	now    Time
	seq    uint64
	events eventHeap
	rng    *RNG

	// yield is signalled by the currently-running proc when it blocks or
	// terminates, returning control to the scheduler loop.
	yield chan struct{}

	cur      *Proc // proc currently executing, nil when scheduler runs
	nlive    int   // procs spawned and not yet finished
	stopping bool
}

// New creates a simulation whose RNG is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		rng:   NewRNG(seed),
		yield: make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// RNG returns the simulation's deterministic random number generator.
func (s *Sim) RNG() *RNG { return s.rng }

type event struct {
	at    Time
	seq   uint64
	p     *Proc
	epoch uint64 // wakeup is valid only if the proc has not resumed since
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// typed rather than built on container/heap, whose interface boxes every
// pushed and popped event into an allocation. seq is unique, so the order
// is total and any correct heap pops the same sequence.
type eventHeap []event

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the *Proc reference
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

func (s *Sim) schedule(at Time, p *Proc) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, p: p, epoch: p.epoch})
	p.pending++
}

// Proc is a simulated process. All Proc methods must be called from the
// proc's own goroutine while it is the active entity.
type Proc struct {
	sim     *Sim
	name    string
	resume  chan struct{}
	pending int    // scheduled wakeups not yet delivered
	waiting bool   // parked on a WaitQueue (woken by WakeOne/WakeAll)
	epoch   uint64 // increments on every resume; stale wakeups are dropped
	done    bool
	fail    error // errno-style sticky failure slot (see SetFail)
	attr    any   // opaque per-proc attribution slot (see SetAttr)
}

// SetAttr attaches an opaque attribution value to the proc. Higher layers
// use it to charge activity to the owning statement without threading a
// parameter through every call chain: the engine attaches a per-statement
// counter set before running a statement, layers that record waits or I/O
// look it up via their own typed accessor (e.g. metrics.StmtOf), and query
// workers propagate the coordinator's value at spawn. Because the
// simulation is strictly serialized, reads and writes never race.
func (p *Proc) SetAttr(v any) { p.attr = v }

// Attr returns the value attached with SetAttr, or nil.
func (p *Proc) Attr() any { return p.attr }

// SetFail records a sticky failure on the proc, errno-style: a layer that
// cannot return an error through its call chain (e.g. a buffer-pool read
// that exhausted its device retries) deposits it here, and a higher layer
// that owns the proc (the session, the query coordinator) collects it with
// TakeFail. The first failure wins until taken.
func (p *Proc) SetFail(err error) {
	if p.fail == nil {
		p.fail = err
	}
}

// TakeFail returns the recorded failure, if any, and clears the slot.
func (p *Proc) TakeFail() error {
	err := p.fail
	p.fail = nil
	return err
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

// RNG returns the simulation RNG.
func (p *Proc) RNG() *RNG { return p.sim.rng }

// Spawn creates a new proc that runs fn. The proc starts at the current
// simulated time (it is scheduled as an event, so it begins when the
// scheduler next reaches now).
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.nlive++
	go func() {
		<-p.resume // wait to be scheduled for the first time
		fn(p)
		p.done = true
		s.nlive--
		s.yield <- struct{}{}
	}()
	s.schedule(s.now, p)
	return p
}

// park transfers control back to the scheduler and blocks until the proc is
// resumed.
func (p *Proc) park() {
	if p.sim.cur != p {
		panic(fmt.Sprintf("sim: proc %q parked while not active", p.name))
	}
	p.sim.yield <- struct{}{}
	<-p.resume
}

// Sleep suspends the proc for d simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+Time(d), p)
	p.park()
}

// Yield reschedules the proc at the current time, letting same-time events
// that were scheduled earlier run first.
func (p *Proc) Yield() {
	p.sim.schedule(p.sim.now, p)
	p.park()
}

// Run executes events until no events remain or the clock would pass until.
// It returns the time at which it stopped. Procs that are still blocked on
// wait queues stay parked; long-running simulations should arrange a
// cooperative shutdown (broadcast a stop flag and WakeAll their queues) so
// procs unwind cleanly rather than leaking goroutines.
//
// When profiling is armed at entry, wall-clock phase timers run too:
// dispatch overhead (heap pops, stale-wakeup filtering, channel handoff
// setup) accrues to sim.loop, the time between resume and yield — the
// proc actually executing — to sim.proc. Simulated behaviour is the same
// either way; only host-side counters differ.
func (s *Sim) Run(until Time) Time {
	prof := Profiling()
	start := s.now
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	for len(s.events) > 0 {
		ev := s.events.pop()
		ev.p.pending--
		if ev.p.done {
			continue
		}
		if ev.epoch != ev.p.epoch {
			// The proc resumed (and possibly parked elsewhere) since this
			// wakeup was scheduled — e.g. a wait that timed out before its
			// queue wake arrived. Stale wakeups must not fire.
			continue
		}
		if ev.at > until {
			// Put it back and stop.
			s.seq++
			s.events.push(ev)
			ev.p.pending++
			s.now = until
			break
		}
		s.now = ev.at
		ev.p.waiting = false
		ev.p.epoch++
		s.cur = ev.p
		var pt time.Time
		if prof {
			pt = time.Now()
		}
		ev.p.resume <- struct{}{}
		<-s.yield
		if prof {
			procWall := time.Since(pt)
			ProfProc.Add(procWall, 1)
			ProfLoop.Add(-procWall, 0) // proc time is inside the loop total; carve it out
		}
		s.cur = nil
	}
	if s.now < until {
		s.now = until
	}
	if prof {
		ProfLoop.Add(time.Since(t0), 1)
		profAddSim(Duration(s.now - start))
	}
	return s.now
}

// Live returns the number of spawned procs that have not finished.
func (s *Sim) Live() int { return s.nlive }

// WaitQueue is a FIFO queue of blocked procs, the building block for
// condition-style synchronization. A proc calls Wait to park itself; another
// proc (or the same code path on a different proc) calls WakeOne or WakeAll
// to schedule parked procs at the current simulated time.
type WaitQueue struct {
	procs []*Proc
}

// Wait parks p on the queue until woken.
func (q *WaitQueue) Wait(p *Proc) {
	q.procs = append(q.procs, p)
	p.waiting = true
	p.park()
}

// WaitTimeout parks p on the queue until woken or until d elapses. It
// reports whether the wait timed out; on timeout, p has been removed
// from the queue. A timed-out wakeup that raced with a WakeOne/WakeAll
// is treated as woken (timedOut = false) when p was already dequeued.
func (q *WaitQueue) WaitTimeout(p *Proc, d Duration) (timedOut bool) {
	if d <= 0 {
		d = 1
	}
	p.sim.schedule(p.sim.now+Time(d), p) // timeout wakeup
	q.procs = append(q.procs, p)
	p.waiting = true
	p.park()
	// Either the timeout fired (p still queued) or a wake dequeued p
	// first; the loser's event is dropped by the epoch check.
	for i, qp := range q.procs {
		if qp == p {
			copy(q.procs[i:], q.procs[i+1:])
			q.procs = q.procs[:len(q.procs)-1]
			return true
		}
	}
	return false
}

// WakeOne wakes the proc at the head of the queue, if any. It reports
// whether a proc was woken.
func (q *WaitQueue) WakeOne(s *Sim) bool {
	if len(q.procs) == 0 {
		return false
	}
	p := q.procs[0]
	copy(q.procs, q.procs[1:])
	q.procs = q.procs[:len(q.procs)-1]
	s.schedule(s.now, p)
	return true
}

// WakeAll wakes every parked proc.
func (q *WaitQueue) WakeAll(s *Sim) {
	for _, p := range q.procs {
		s.schedule(s.now, p)
	}
	q.procs = q.procs[:0]
}

// Len returns the number of parked procs.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Resource is a counted resource with FIFO-ish admission: procs that find
// the resource exhausted park on an internal queue and re-check when woken.
type Resource struct {
	capacity int
	inUse    int
	q        WaitQueue
}

// NewResource creates a resource with the given capacity (units).
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{capacity: capacity}
}

// SetCapacity changes the capacity and wakes waiters that may now fit.
func (r *Resource) SetCapacity(s *Sim, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	r.capacity = capacity
	r.q.WakeAll(s)
}

// Acquire blocks p until a unit is available, then takes it. It returns the
// simulated time spent waiting.
func (r *Resource) Acquire(p *Proc) Duration {
	start := p.sim.now
	for r.inUse >= r.capacity {
		r.q.Wait(p)
	}
	r.inUse++
	return Duration(p.sim.now - start)
}

// TryAcquire takes a unit if one is available without blocking.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.inUse++
	return true
}

// Release returns a unit and wakes one waiter.
func (r *Resource) Release(s *Sim) {
	if r.inUse <= 0 {
		panic("sim: Resource.Release without Acquire")
	}
	r.inUse--
	r.q.WakeOne(s)
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Waiting returns the number of procs parked waiting for a unit — the
// resource's instantaneous queue depth.
func (r *Resource) Waiting() int { return r.q.Len() }

// Capacity returns the current capacity.
func (r *Resource) Capacity() int { return r.capacity }
