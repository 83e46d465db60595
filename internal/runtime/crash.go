package runtime

import (
	goruntime "runtime"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Fail-stop crashes on the live substrate: the simulator's model
// (internal/simmpi/crash.go) with faults.Detector's leases on
// time.AfterFunc timers. The dying rank halts its engine, sweeps its
// unexpected queue (live rendezvous senders parked there fail with a
// TimeoutError) and leaves through runtime.Goexit, so its deferred Run
// bookkeeping still runs. deliver() refuses traffic addressed to a
// halted rank and annihilates in-flight copies from a dead sender.

// armCrashes builds the detector once the ranks exist (called at the end
// of NewWorld; options run before the rank slice is built).
func (w *World) armCrashes() {
	if len(w.crashPlan) == 0 {
		return
	}
	w.crash = faults.NewDetector(w.Size(), w.crashPlan, w.rec, faults.LeaseHooks{
		After:    func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		Now:      func() time.Duration { return time.Since(w.start) },
		Trace:    func() *trace.Buffer { return w.Trace },
		Observer: -1,
		Confirm: func(r int) {
			for _, d := range w.ranks {
				if !w.crash.Dead(d.rank) {
					d.eng.PushNotice(comm.Notice{Kind: comm.NoticeDeath, Rank: r})
				}
			}
		},
	})
}

// DetectorStats returns the detector counters; zero when no crash rules
// are armed.
func (w *World) DetectorStats() faults.DetectorStats { return w.crash.Stats() }

// Crashed returns the per-rank death mask.
func (w *World) Crashed() []bool { return w.crash.DeadMask(w.Size()) }

// noteSend counts one send initiation by c; at the rank's crash point it
// halts the rank and exits the calling goroutine (Goexit runs the Run
// deferrals, so the world keeps going without it).
func (w *World) noteSend(c *Comm) {
	if !w.crash.NoteSend(c.rank) {
		return
	}
	if tb := w.Trace; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: trace.Crash, Peer: -1})
	}
	c.halt()
	w.crash.Lease(c.rank)
	goruntime.Goexit()
}

// halt tears down the dying rank's matching engine and releases live
// senders parked in its unexpected queue.
func (c *Comm) halt() {
	_, une := c.eng.Halt()
	for _, env := range une {
		c.refuse(env)
	}
}

// refuse handles traffic addressed to a halted rank: a rendezvous
// announcement fails its (live) sender with the same structured error an
// exhausted retry chain produces; an eager payload is swallowed.
func (c *Comm) refuse(env *progress.Env) {
	if env.Rts != nil {
		err := &faults.TimeoutError{Rank: env.Src, Peer: c.rank, Tag: env.Tag, Attempts: 1}
		if c.w.inj != nil {
			c.w.inj.NoteTimeout()
		}
		c.w.failMu.Lock()
		c.w.failures = append(c.w.failures, err)
		c.w.failMu.Unlock()
		env.Rts.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Err: err})
		return
	}
	if env.Msg.Data != nil {
		comm.PutBuf(env.Msg.Data)
	}
}

// annihilate swallows an in-flight copy from a crashed sender.
func (c *Comm) annihilate(env *progress.Env) {
	if env.Rts == nil && env.Msg.Data != nil {
		comm.PutBuf(env.Msg.Data)
	}
	// A rendezvous announcement from a dead sender simply vanishes: its
	// request will never be waited on again.
}

// ---- comm.FailStop implementation ----

var _ comm.FailStop = (*Comm)(nil)

// CrashesEnabled reports whether crash rules are armed in this world.
func (c *Comm) CrashesEnabled() bool { return c.w.crash != nil }

// ConfirmedDead returns a fresh detector-confirmed death mask.
func (c *Comm) ConfirmedDead() []bool { return c.w.crash.ConfirmedMask(c.Size()) }

// TakeNotices drains this rank's pending control-plane notices.
func (c *Comm) TakeNotices() []comm.Notice { return c.eng.TakeNotices() }

// WaitEvent blocks until a completion callback fires or a new notice
// arrives. Legal with no operation in flight.
func (c *Comm) WaitEvent() { c.eng.WaitEvent() }

// CancelRecv retracts a posted, unmatched receive. Returns false when
// the receive already matched (its callback still fires).
func (c *Comm) CancelRecv(r comm.Request) bool { return c.eng.CancelRecv(r) }

// Commit fans a NoticeCommit out to every live rank. Counts as a send
// initiation, so a crash scheduled at the root's commit point fires here.
func (c *Comm) Commit(seq int, survivors []bool) {
	w := c.w
	w.noteSend(c)
	mask := append([]bool(nil), survivors...)
	for _, d := range w.ranks {
		if d != c && !w.crash.Dead(d.rank) {
			d.eng.PushNotice(comm.Notice{Kind: comm.NoticeCommit, Seq: seq, Survivors: mask})
		}
	}
}
