package faults

import (
	"fmt"
	"sync"
	"time"

	"adapt/internal/perf"
	"adapt/internal/trace"
)

// Fail-stop crashes and the lease failure detector, shared by every
// substrate. A crash@rank[:afterK] rule kills the rank as it initiates
// its (K+1)-th send, a pure function of its program order, so a plan
// kills it at the same protocol step everywhere. From the observed death
// the detector runs two leases on the substrate's clock: at SuspectAfter
// it suspects the rank (counters and trace only), at ConfirmAfter it
// confirms the death, counts one tree repair and hands the rank to the
// substrate, which sweeps what waited on it and fans the notice out.

// DetectorStats is a failure detector's activity.
type DetectorStats struct {
	Suspects uint64 // suspicion leases expired
	Confirms uint64 // deaths confirmed
	Repairs  uint64 // tree repairs triggered by confirmations
}

// LeaseHooks is what a substrate supplies to run the leases: its clock
// (After runs fn d from now; Now stamps trace records), its trace buffer
// (nil when off), the Observer rank its records trace on (-1 for a
// world-level detector, the endpoint's own rank on TCP), optionally Live
// (leases expiring after a clean shutdown do nothing), and Confirm, the
// substrate's side of a confirmed death, run once per dead rank after
// the masks and counters are updated.
type LeaseHooks struct {
	After    func(d time.Duration, fn func())
	Now      func() time.Duration
	Trace    func() *trace.Buffer
	Observer int
	Live     func() bool
	Confirm  func(r int)
}

// Detector holds a world's (on TCP, one endpoint's view of its world's)
// crash schedule and death masks, and runs the leases. It is safe for
// concurrent use; a nil Detector (no crash rules armed) reports a world
// where nothing dies.
type Detector struct {
	rec   Recovery
	hooks LeaseHooks

	mu        sync.Mutex
	after     []int // rank → send initiations allowed before dying; -1 = no rule
	sends     []int
	dead      []bool // rank has halted (or, on TCP, its connection was lost)
	confirmed []bool // the detector has confirmed the death
	stats     DetectorStats
}

// NewDetector builds the detector for an n-rank world with the given
// crash schedule; rec supplies the lease lengths. It panics on a rule
// for a rank outside the world.
func NewDetector(n int, crashes []Crash, rec Recovery, h LeaseHooks) *Detector {
	d := &Detector{
		rec: rec, hooks: h,
		after:     make([]int, n),
		sends:     make([]int, n),
		dead:      make([]bool, n),
		confirmed: make([]bool, n),
	}
	for r := range d.after {
		d.after[r] = -1
	}
	for _, cr := range crashes {
		if cr.Rank < 0 || cr.Rank >= n {
			panic(fmt.Sprintf("faults: crash rule for rank %d in a %d-rank world", cr.Rank, n))
		}
		d.after[cr.Rank] = cr.AfterSends
	}
	return d
}

// NoteSend counts one send initiation by rank r and reports whether it
// is r's crash point, in which case r is now dead. The caller tears the
// rank down and arms the leases.
func (d *Detector) NoteSend(r int) bool {
	// Inlined on every send path: the schedule is immutable, so a rank
	// without a rule needs no lock.
	return d != nil && d.after[r] >= 0 && d.countSend(r)
}

func (d *Detector) countSend(r int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[r] {
		return false
	}
	n := d.sends[r]
	d.sends[r]++
	if n < d.after[r] {
		return false
	}
	d.dead[r] = true
	return true
}

// MarkDead records r's death as observed from outside (a lost
// connection) and reports whether it is news.
func (d *Detector) MarkDead(r int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[r] {
		return false
	}
	d.dead[r] = true
	return true
}

// Dead reports whether r has halted.
func (d *Detector) Dead(r int) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[r]
}

// Confirmed reports whether the detector has confirmed r's death.
func (d *Detector) Confirmed(r int) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.confirmed[r]
}

// DeadMask returns a fresh n-entry death mask.
func (d *Detector) DeadMask(n int) []bool { return d.mask(n, false) }

// ConfirmedMask returns a fresh n-entry confirmed-death mask.
func (d *Detector) ConfirmedMask(n int) []bool { return d.mask(n, true) }

func (d *Detector) mask(n int, confirmed bool) []bool {
	out := make([]bool, n)
	if d == nil {
		return out
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if confirmed {
		copy(out, d.confirmed)
	} else {
		copy(out, d.dead)
	}
	return out
}

// Stats returns the detector counters; zero for a nil Detector, so clean
// runs report zero.
func (d *Detector) Stats() DetectorStats {
	if d == nil {
		return DetectorStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Lease arms the suspicion and confirmation leases for r, whose death
// was observed now.
func (d *Detector) Lease(r int) {
	h := d.hooks
	h.After(d.rec.SuspectAfter, func() {
		if h.Live != nil && !h.Live() {
			return
		}
		d.mu.Lock()
		d.stats.Suspects++
		d.mu.Unlock()
		perf.RecordDetectorSuspect()
		d.trace(trace.Suspect, r)
	})
	h.After(d.rec.ConfirmAfter, func() {
		if h.Live != nil && !h.Live() {
			return
		}
		d.mu.Lock()
		if d.confirmed[r] {
			d.mu.Unlock()
			return
		}
		d.confirmed[r] = true
		d.stats.Confirms++
		// One repaired tree takes effect per confirmed death.
		d.stats.Repairs++
		d.mu.Unlock()
		perf.RecordDetectorConfirm()
		perf.RecordTreeRepair()
		d.trace(trace.Confirm, r)
		d.trace(trace.Repair, r)
		if h.Confirm != nil {
			h.Confirm(r)
		}
	})
}

// trace records one detector event about rank r; no-op when tracing is
// off.
func (d *Detector) trace(kind trace.Kind, r int) {
	if d.hooks.Trace == nil {
		return
	}
	if tb := d.hooks.Trace(); tb != nil {
		tb.Add(trace.Record{At: d.hooks.Now(), Rank: d.hooks.Observer, Kind: kind, Peer: r})
	}
}
