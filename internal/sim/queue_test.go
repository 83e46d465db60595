package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"adapt/internal/perf"
)

// dispatchRecord captures one dispatched event as the observer saw it.
type dispatchRecord struct {
	seq uint64
	at  time.Duration
}

// dispatcher is the surface the adversarial workload drives: the
// production Kernel and the reference dispatcher both provide it.
type dispatcher interface {
	Schedule(delay time.Duration, fn func())
	SetDispatchObserver(fn func(seq uint64, at time.Duration))
	MustRun() time.Duration
}

// refDispatcher is the reference the production kernel is checked
// against: one binary heap (container/heap) over every pending event,
// ordered by (at, seq), with no lane and no ladder.
type refDispatcher struct {
	now     time.Duration
	seq     uint64
	pending refHeap
	observe func(seq uint64, at time.Duration)
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (r *refDispatcher) Schedule(delay time.Duration, fn func()) {
	r.seq++
	heap.Push(&r.pending, refEvent{at: r.now + delay, seq: r.seq, fn: fn})
}

func (r *refDispatcher) SetDispatchObserver(fn func(seq uint64, at time.Duration)) {
	r.observe = fn
}

func (r *refDispatcher) MustRun() time.Duration {
	for r.pending.Len() > 0 {
		e := heap.Pop(&r.pending).(refEvent)
		r.now = e.at
		if r.observe != nil {
			r.observe(e.seq, e.at)
		}
		e.fn()
	}
	return r.now
}

// runAdversarialWorkload drives a dispatcher through a seeded workload
// that exercises every lane and ladder tier and transition: zero-delay
// ties, sub-width near-future bursts, cross-horizon far-future jumps,
// nested scheduling from inside handlers, and drain-to-empty refill
// cycles. It returns the full dispatch sequence.
func runAdversarialWorkload(k dispatcher, seed int64) []dispatchRecord {
	rng := rand.New(rand.NewSource(seed))
	var got []dispatchRecord
	k.SetDispatchObserver(func(seq uint64, at time.Duration) {
		got = append(got, dispatchRecord{seq, at})
	})
	spawned := 0
	var handler func()
	handler = func() {
		// Each event spawns a few more until the budget runs out, with
		// deltas drawn from four scales so events land in the lane (0),
		// the front heap and near buckets (ns/µs), and the far overflow
		// (ms/s).
		for n := rng.Intn(4); n > 0 && spawned < 60000; n-- {
			spawned++
			var d time.Duration
			switch rng.Intn(5) {
			case 0:
				d = 0 // same-instant: exercises the seq tie-break
			case 1:
				d = time.Duration(rng.Intn(500)) * time.Nanosecond
			case 2:
				d = time.Duration(rng.Intn(50)) * time.Microsecond
			case 3:
				d = time.Duration(rng.Intn(20)) * time.Millisecond
			default:
				d = time.Duration(rng.Intn(3)) * time.Second
			}
			k.Schedule(d, handler)
		}
	}
	// A spread of roots so the first reseed sees a wide span, some of
	// them at time zero so the lane is busy before the clock first moves.
	for i := 0; i < 64; i++ {
		spawned++
		k.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond*time.Duration(i%2), handler)
	}
	k.MustRun()
	k.SetDispatchObserver(nil)
	return got
}

// TestQueueKindsIdenticalOrder is the differential gate for the kernel's
// lane and ladder queue: the exact (seq, at) dispatch sequence of the
// production kernel must be byte-identical to the single-heap reference
// on adversarial workloads. This is the kernel-level half of the "replay
// stays byte-identical" contract; the conformance registry + replay
// goldens are the end-to-end half.
func TestQueueKindsIdenticalOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := runAdversarialWorkload(&refDispatcher{}, seed)
		got := runAdversarialWorkload(New(), seed)
		if len(ref) != len(got) {
			t.Fatalf("seed %d: reference dispatched %d events, kernel %d", seed, len(ref), len(got))
		}
		if len(ref) < 10000 {
			t.Fatalf("seed %d: workload too small (%d events) to be a meaningful diff", seed, len(ref))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("seed %d: dispatch %d diverged: reference %+v, kernel %+v",
					seed, i, ref[i], got[i])
			}
		}
	}
}

// TestLaneTieBreak pins the lane's ordering at one instant t: an event
// scheduled before the clock reached t (delay > 0) runs before the
// delay-0 events scheduled at t, those run in schedule order, and a
// process's Sleep(0) at t still returns inline ahead of all of them.
func TestLaneTieBreak(t *testing.T) {
	k := New()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	k.Schedule(ms(1), func() {
		order = append(order, "first@t")
		k.Schedule(0, note("lane-a"))
		k.Schedule(0, func() {
			order = append(order, "lane-b")
			k.Schedule(0, note("lane-d"))
		})
	})
	k.Schedule(ms(1), note("early@t")) // scheduled at 0 for t: heap, lower seq
	k.Go("p", func(p *Proc) {
		p.Sleep(ms(1)) // wakes at t from the heap, after early@t
		k.Schedule(0, note("lane-c"))
		p.Sleep(0)
		order = append(order, "proc-after-sleep0")
	})
	k.Schedule(ms(2), note("later"))
	k.MustRun()
	want := "first@t,early@t,proc-after-sleep0,lane-a,lane-b,lane-c,lane-d,later"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestEventRingWraps: the lane ring keeps FIFO order across wrap-around
// and growth.
func TestEventRingWraps(t *testing.T) {
	var r eventRing
	next, want := uint64(0), uint64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1000; i++ {
			r.push(event{seq: next})
			next++
			if i%3 == 0 {
				if e := r.pop(); e.seq != want {
					t.Fatalf("popped seq %d, want %d", e.seq, want)
				}
				want++
			}
		}
		for r.n > 0 {
			if e := r.pop(); e.seq != want {
				t.Fatalf("popped seq %d, want %d", e.seq, want)
			}
			want++
		}
	}
}

// TestLadderOverflowNotOvertaken pins the exact bug class a sliding
// horizon admits: an event parked in the far-future overflow must not be
// out-dispatched by a later-scheduled event with a LATER timestamp that
// the near tier happens to bucket. The geometry is therefore fixed per
// epoch (see eventQueue docs); this regression test drives that scenario
// directly.
func TestLadderOverflowNotOvertaken(t *testing.T) {
	k := New()
	var order []string
	// Force a reseed with a tiny span so the horizon lands close.
	for i := 0; i < 4; i++ {
		i := i
		k.Schedule(time.Duration(i)*time.Microsecond, func() {
			order = append(order, fmt.Sprintf("seed%d", i))
		})
	}
	// Far beyond that horizon: overflow.
	k.Schedule(10*time.Second, func() {
		order = append(order, "far")
		// Scheduled later in wall order but EARLIER than nothing — this one
		// lands after "far" in time; a sliding horizon could have bucketed
		// it next to the near tier and dispatched it first.
	})
	k.Schedule(2*time.Microsecond, func() {
		// Mid-run, schedule an event between the first horizon and the far
		// event: with a sliding horizon this could enter a bucket while
		// "far" sits in overflow, then be swept ahead of an even-earlier
		// overflow event on the next epoch.
		k.Schedule(9*time.Second+999*time.Millisecond, func() {
			order = append(order, "late-near")
		})
	})
	k.MustRun()
	want := "seed0,seed1,seed2,seed3,late-near,far"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("dispatch order = %s, want %s", got, want)
	}
}

// TestKernelRunStatsAreDeltas pins the satellite bugfix: Run publishes
// per-run deltas for dispatched/scheduled AND a per-run queue peak. The
// old code republished the kernel-lifetime peak on every Run, so a large
// first run inflated the reported peak of every later small run.
func TestKernelRunStatsAreDeltas(t *testing.T) {
	perf.Reset()
	k := New()
	// Run 1: a 512-event burst, all pending at once.
	for i := 0; i < 512; i++ {
		k.Schedule(ms(i%7), func() {})
	}
	k.MustRun()
	s1 := perf.Read()
	if s1.EventsDispatched != 512 || s1.HeapPeak != 512 {
		t.Fatalf("run 1 published dispatched=%d peak=%d, want 512/512",
			s1.EventsDispatched, s1.HeapPeak)
	}
	if st := k.Stats(); st.QueuePeakRun != 0 || st.QueuePeak != 512 {
		t.Fatalf("post-run stats = %+v, want QueuePeakRun 0, QueuePeak 512", st)
	}

	// Run 2: three events. The published delta must be 3, and the run's
	// peak must be 3 — not run 1's 512.
	perf.Reset()
	for i := 0; i < 3; i++ {
		k.Schedule(ms(i), func() {})
	}
	if st := k.Stats(); st.QueuePeakRun != 3 {
		t.Fatalf("pre-run-2 QueuePeakRun = %d, want 3", st.QueuePeakRun)
	}
	k.MustRun()
	s2 := perf.Read()
	if s2.EventsDispatched != 3 || s2.EventsScheduled != 3 {
		t.Fatalf("run 2 published dispatched=%d scheduled=%d, want 3/3 (lifetime leaked into the delta)",
			s2.EventsDispatched, s2.EventsScheduled)
	}
	if s2.HeapPeak != 3 {
		t.Fatalf("run 2 published queue peak %d, want 3 (lifetime high-water republished)", s2.HeapPeak)
	}
	// The lifetime view is still the lifetime view.
	if st := k.Stats(); st.QueuePeak != 512 || st.Dispatched != 515 {
		t.Fatalf("lifetime stats = %+v, want QueuePeak 512, Dispatched 515", st)
	}
	perf.Reset()
}

// TestHeapShrinkOnDrain pins the satellite bugfix: one large burst must
// not pin its backing array for the kernel's lifetime. After draining a
// burst far above the floor, the heap's capacity must have been released
// (and the dispatch order must be unaffected — checked by popping in
// order).
func TestHeapShrinkOnDrain(t *testing.T) {
	var q eventHeap
	const n = 1 << 17 // 131072, well above shrinkFloor
	for i := 0; i < n; i++ {
		q.push(event{at: time.Duration(i % 977), seq: uint64(i)})
	}
	burst := cap(q.a)
	if burst < n {
		t.Fatalf("burst capacity %d < %d", burst, n)
	}
	var prev event
	for i := 0; i < n; i++ {
		e := q.pop()
		if i > 0 && e.before(prev) {
			t.Fatalf("pop %d out of order: %v after %v", i, e, prev)
		}
		prev = e
	}
	if got := cap(q.a); got > burst/32 {
		t.Fatalf("drained heap still holds cap %d of burst %d — shrink-on-drain failed", got, burst)
	}
	// Steady state below the floor must NOT shrink (no allocator thrash):
	// interleaved push/pop at small occupancy keeps one stable backing.
	for i := 0; i < 100; i++ {
		q.push(event{at: time.Duration(i), seq: uint64(n + i)})
	}
	stable := cap(q.a)
	for i := 0; i < 100; i++ {
		q.pop()
		q.push(event{at: time.Duration(1000 + i), seq: uint64(2*n + i)})
	}
	if cap(q.a) != stable {
		t.Fatalf("steady-state backing reallocated: cap %d → %d", stable, cap(q.a))
	}
}

// TestLadderReleasesBurstBackings: the ladder's bucket, front-heap and
// overflow backings obey the same shrink-on-drain policy — once the
// queue drains, no backing inflated past the floor is kept.
func TestLadderReleasesBurstBackings(t *testing.T) {
	var q eventQueue
	// Establish a geometry, then overflow a burst far beyond the floor.
	q.push(event{at: 0, seq: 1})
	q.push(event{at: time.Microsecond, seq: 2})
	const n = 8192
	for i := 0; i < n; i++ {
		q.push(event{at: time.Second + time.Duration(i), seq: uint64(3 + i)})
	}
	for q.len() > 0 {
		q.pop()
	}
	if cap(q.spare) > shrinkFloor || cap(q.overflow) > shrinkFloor {
		t.Fatalf("overflow burst backings (caps %d, %d) retained past the shrink floor",
			cap(q.spare), cap(q.overflow))
	}
	for _, b := range q.pool {
		if cap(b) > shrinkFloor {
			t.Fatalf("bucket burst backing (cap %d) pooled past the shrink floor", cap(b))
		}
	}
	if cap(q.front.a) > shrinkFloor {
		t.Fatalf("front heap backing (cap %d) retained past the shrink floor", cap(q.front.a))
	}
}

// TestSleepZeroDoesNotYield pins the documented Sleep(0) semantics: it
// returns inline WITHOUT passing through the event queue, so the process
// keeps running ahead of already-queued same-instant events — unlike
// Schedule(0), which queues behind them. The all-substrate conformance
// grid and replay goldens were recorded under these semantics; changing
// Sleep(0) to yield would reorder every golden, so the behavior is
// documented and pinned rather than "fixed".
func TestSleepZeroDoesNotYield(t *testing.T) {
	k := New()
	var order []string
	k.Go("p", func(p *Proc) {
		p.Sleep(ms(1))
		// Queued before the Sleep(0): would run first if Sleep(0) yielded.
		k.Schedule(0, func() { order = append(order, "queued") })
		p.Sleep(0)
		order = append(order, "after-sleep0")
	})
	k.MustRun()
	want := "after-sleep0,queued"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s (Sleep(0) must not yield)", got, want)
	}
}

// TestDeadlockReportCapped: a deadlocked 100k-proc simulation must fail
// fast with a bounded report — the first deadlockReportCap names plus a
// total — instead of sorting and printing every stuck name.
func TestDeadlockReportCapped(t *testing.T) {
	k := New()
	const n = 100000
	for i := 0; i < n; i++ {
		k.Go(fmt.Sprintf("rank-%06d", i), func(p *Proc) { p.Park() })
	}
	start := time.Now()
	_, err := k.Run()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("%d processes stuck", n)) {
		t.Fatalf("error lacks the total count: %s", msg)
	}
	if !strings.Contains(msg, fmt.Sprintf("(+%d more)", n-deadlockReportCap)) {
		t.Fatalf("error lacks the truncation suffix: %s", msg)
	}
	if got := strings.Count(msg, "rank-"); got != deadlockReportCap {
		t.Fatalf("error names %d procs, want %d: %s", got, deadlockReportCap, msg)
	}
	if len(msg) > 1024 {
		t.Fatalf("deadlock report is %d bytes — not capped", len(msg))
	}
	if elapsed > 30*time.Second {
		t.Fatalf("deadlock report took %v — not failing fast", elapsed)
	}
}
