// Package sim is a deterministic discrete-event simulation kernel with
// coroutine-style processes. It underpins the simulated MPI substrate
// (internal/simmpi) used to reproduce the paper's experiments — from the
// 1000+-rank figures up to million-rank topology sweeps — on a single
// machine.
//
// Determinism: the kernel runs exactly one goroutine at a time — either
// the event dispatcher or a single resumed process — with strict handoff,
// and orders simultaneous events by insertion sequence. Two runs of the
// same workload produce identical virtual-time trajectories.
//
// Pending events live in two structures (see queue.go). Events scheduled
// with delay 0 go to a same-instant FIFO lane; all others go to a
// two-tier bucketed calendar ("ladder") queue with a monomorphic 4-ary
// heap as its front tier. Both give amortized O(1) schedule and dispatch
// with zero per-event allocations, and together they preserve the exact
// (at, seq) dispatch order of a single flat heap.
//
// An event's target is a Handler. Schedule wraps a plain func in the
// Func adapter; substrates that step a per-message state machine
// (netmodel flights, simmpi transfers) schedule a pooled struct instead,
// so a step allocates no closure.
package sim

import (
	"fmt"
	"sort"
	"time"

	"adapt/internal/perf"
)

// Handler is an event's target: the kernel calls Fire at the event's
// virtual time.
type Handler interface{ Fire() }

// Func adapts a plain function to Handler. A func value is
// pointer-shaped, so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now   time.Duration
	queue eventQueue // events scheduled with delay > 0
	lane  eventRing  // events scheduled with delay 0, all at now, FIFO
	seq   uint64

	yield chan struct{} // process → kernel control handoff
	procs []*Proc
	live  int

	// Stats (see Stats); reported* track what Run already published to
	// the process-wide perf counters, so repeated Runs publish deltas.
	// queuePeak is the kernel-lifetime high-water mark; runPeak is the
	// high-water mark since the previous Run returned, which is what Run
	// publishes — republishing the lifetime peak made every later Run
	// re-report run 1's burst (see TestKernelRunStatsAreDeltas).
	dispatched         uint64
	scheduled          uint64
	queuePeak          int
	runPeak            int
	reportedDispatched uint64
	reportedScheduled  uint64

	// onDispatch, when non-nil, observes every dispatched event (seq,
	// virtual time) before its handler runs. The nil fast path is a single
	// predictable branch and adds zero allocations to the dispatch loop
	// (gated by BenchmarkKernelDispatchObserved/TestObserverNilZeroAlloc).
	onDispatch func(seq uint64, at time.Duration)
}

// New creates an empty kernel at virtual time zero.
func New() *Kernel { return &Kernel{yield: make(chan struct{})} }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Dispatched returns the number of events executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Stats is a kernel's event-loop counter snapshot.
type Stats struct {
	Dispatched   uint64 // events executed
	Scheduled    uint64 // events inserted
	QueuePeak    int    // kernel-lifetime maximum simultaneous pending events
	QueuePeakRun int    // maximum pending events since the previous Run returned
	QueueLen     int    // pending events right now
}

// Stats returns the kernel's counters. QueuePeak is the lifetime
// high-water mark; QueuePeakRun covers only the window since the last
// completed Run (it is what Run publishes to the process-wide counters).
func (k *Kernel) Stats() Stats {
	return Stats{
		Dispatched:   k.dispatched,
		Scheduled:    k.scheduled,
		QueuePeak:    k.queuePeak,
		QueuePeakRun: k.runPeak,
		QueueLen:     k.pending(),
	}
}

// pending counts the events not yet dispatched.
func (k *Kernel) pending() int { return k.queue.len() + k.lane.n }

// Schedule runs fn after delay ≥ 0 of virtual time.
func (k *Kernel) Schedule(delay time.Duration, fn func()) {
	k.ScheduleHandler(delay, Func(fn))
}

// ScheduleHandler fires h after delay ≥ 0 of virtual time. This is the
// single validation and insertion site for events: Schedule and At
// funnel through it, so an event placed in the past always fails here
// with the same diagnostic.
func (k *Kernel) ScheduleHandler(delay time.Duration, h Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: event in the past: %v < %v", k.now+delay, k.now))
	}
	k.seq++
	k.scheduled++
	e := event{at: k.now + delay, seq: k.seq, h: h}
	if delay == 0 {
		k.lane.push(e)
	} else {
		k.queue.push(e)
	}
	if n := k.pending(); n > k.runPeak {
		k.runPeak = n
		if n > k.queuePeak {
			k.queuePeak = n
		}
	}
}

// SetDispatchObserver installs (or, with nil, removes) a hook that sees
// every dispatched event's insertion sequence and virtual time before its
// handler runs — enough to attribute trace records to dispatch order
// without touching the handlers. The observer must not schedule events.
func (k *Kernel) SetDispatchObserver(fn func(seq uint64, at time.Duration)) {
	k.onDispatch = fn
}

// At runs fn at absolute virtual time t ≥ Now().
func (k *Kernel) At(t time.Duration, fn func()) {
	k.ScheduleHandler(t-k.now, Func(fn))
}

// AtHandler fires h at absolute virtual time t ≥ Now().
func (k *Kernel) AtHandler(t time.Duration, h Handler) {
	k.ScheduleHandler(t-k.now, h)
}

// deadlockReportCap bounds how many stuck-process names a deadlock error
// spells out; at 100k+ ranks sorting and printing every name would cost
// more than the simulation that deadlocked (see TestDeadlockReportCapped).
const deadlockReportCap = 16

// Run dispatches events until the queue drains. If processes are still
// alive when the queue is empty, the simulation is deadlocked and Run
// returns an error naming the first deadlockReportCap stuck processes
// (plus a total). On success it returns the final virtual time.
//
// Dispatch order is (at, seq) across both structures. Every queued event
// at now was scheduled with delay > 0 before the clock reached now, so
// its seq is below that of every lane event, all of which were scheduled
// at now: queued events at now run first, then the lane drains. While it
// drains, no queued event at now can appear, because a lane handler's
// delay-0 work joins the lane and all other work lands after now.
func (k *Kernel) Run() (time.Duration, error) {
	for {
		if k.queue.len() > 0 && (k.lane.n == 0 || k.queue.minAt() == k.now) {
			e := k.queue.pop()
			k.now = e.at
			k.dispatch(e)
			continue
		}
		if k.lane.n == 0 {
			break
		}
		for k.lane.n > 0 {
			k.dispatch(k.lane.pop())
		}
	}
	perf.RecordKernelRun(k.dispatched-k.reportedDispatched,
		k.scheduled-k.reportedScheduled, k.runPeak)
	k.reportedDispatched = k.dispatched
	k.reportedScheduled = k.scheduled
	k.runPeak = 0 // both structures just drained
	if k.live > 0 {
		var stuck []string
		for _, p := range k.procs {
			if !p.done {
				stuck = append(stuck, p.Name)
			}
		}
		sort.Strings(stuck)
		more := ""
		if len(stuck) > deadlockReportCap {
			more = fmt.Sprintf(" (+%d more)", len(stuck)-deadlockReportCap)
			stuck = stuck[:deadlockReportCap]
		}
		return k.now, fmt.Errorf("sim: deadlock at %v: %d processes stuck: %v%s", k.now, k.live, stuck, more)
	}
	return k.now, nil
}

// dispatch fires one event.
func (k *Kernel) dispatch(e event) {
	k.dispatched++
	if k.onDispatch != nil {
		k.onDispatch(e.seq, e.at)
	}
	e.h.Fire()
}

// MustRun is Run that panics on deadlock, for tests and benchmarks.
func (k *Kernel) MustRun() time.Duration {
	t, err := k.Run()
	if err != nil {
		panic(err)
	}
	return t
}
