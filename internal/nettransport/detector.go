package nettransport

import (
	goruntime "runtime"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// mDetectLatency brackets the failure detector: from the moment a
// connection loss is observed (peerLost) to the lease-confirmed death
// commit. The spread is dominated by ConfirmAfter, so the histogram is
// the operator's view of effective detection latency under the
// configured recovery leases.
var mDetectLatency = metrics.NewHistogram("adapt_detector_confirm_latency_ns",
	"suspicion-to-confirmation latency of the lease failure detector")

// Lease-based failure detection over sockets. The trigger is observed
// teardown — a connection that errors or hits EOF without the Bye
// handshake — rather than inferred silence: TCP resets and FINs from a
// dying process arrive promptly on loopback, and a lease on top of the
// observation keeps a transient glitch from instantly committing a
// death. The leases, masks and counters are the shared
// faults.Detector's, observed from this endpoint: suspicion is
// counters-only, confirmation fans a death Notice to the owner's control
// plane and fails every pending operation that depended on the dead
// peer (confirmDeath).

// newDetector builds the endpoint's view of its world's deaths: its own
// crash countdown plus the peers it has seen vanish.
func (c *Comm) newDetector() *faults.Detector {
	return faults.NewDetector(c.size, c.cfg.crashPlan, c.cfg.rec, faults.LeaseHooks{
		After:    func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		Now:      c.Now,
		Trace:    func() *trace.Buffer { return c.cfg.traceBuf },
		Observer: c.rank,
		Live:     func() bool { return !c.isClosed() },
		Confirm:  c.confirmDeath,
	})
}

// peerLost records a connection loss without the clean handshake and
// arms the suspicion/confirmation leases. Callable from any goroutine;
// idempotent per peer.
func (c *Comm) peerLost(rank int, cause error) {
	c.mu.Lock()
	if c.closed || !c.det.MarkDead(rank) {
		c.mu.Unlock()
		return
	}
	c.lostAt[rank] = metrics.Clock()
	c.mu.Unlock()
	perf.RecordNetPeerDown()
	if tb := c.cfg.traceBuf; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: trace.Crash, Peer: rank})
	}
	c.sched.markDead(rank, cause)
	c.det.Lease(rank)
}

// confirmDeath is this endpoint's side of a confirmed death: fail every
// pending operation waiting on the dead peer and notify the owner. The
// detector has already set the confirmed mask, so an Isend or match
// racing this sweep either sees the mask or registers before the sweep
// takes c.mu.
func (c *Comm) confirmDeath(rank int) {
	c.mu.Lock()
	lostAt := c.lostAt[rank]
	// Rendezvous sends parked on a grant that will never come.
	for key, req := range c.sendPend {
		if key.peer != rank {
			continue
		}
		delete(c.sendPend, key)
		req.Complete(comm.Status{Source: c.rank, Tag: req.Tag,
			Err: &faults.TimeoutError{Rank: c.rank, Peer: rank, Tag: req.Tag, Attempts: 1}})
	}
	// Matched receives parked on a payload that will never stream.
	for key := range c.pulls {
		if key.peer == rank {
			c.failPullLocked(key)
		}
	}
	c.mu.Unlock()

	// Rendezvous announcements from the dead peer still sitting unexpected
	// can never be granted; drop them so a later Irecv does not park
	// forever on a dead sender.
	c.eng.DropUnexpected(func(env *progress.Env) bool {
		return env.Src == rank && env.Rdv
	})

	c.eng.PushNotice(comm.Notice{Kind: comm.NoticeDeath, Rank: rank})
	mDetectLatency.ObserveSince(lostAt)
	if f := c.cfg.onPeerDeath; f != nil {
		f(rank)
	}
	c.signal()
}

// isClosed reports whether clean shutdown has begun.
func (c *Comm) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// noteSend counts one send initiation; at the rank's crash point it
// tears the process's connections down abruptly — no Bye — and leaves
// via the configured exit hook. Owner-goroutine only.
func (c *Comm) noteSend() {
	if !c.det.NoteSend(c.rank) {
		return
	}
	if tb := c.cfg.traceBuf; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: trace.Crash, Peer: -1})
	}
	c.die()
	if c.cfg.crashExit != nil {
		c.cfg.crashExit()
	}
	// Fail-stop means the rank stops: no configured exit hook leaves via
	// Goexit so the rank's goroutine never executes another instruction.
	goruntime.Goexit()
}

// die is the fail-stop half of a crash: every connection is cut without
// the Bye handshake, so peers observe exactly what a killed process
// leaves behind. The dying endpoint marks itself closed first so its own
// I/O loop observing the teardown never feeds the (now moot) detector.
func (c *Comm) die() {
	c.shut()
	// Kill every send queue (backlogs dispose, the writer drains and
	// exits), then stop the loop and cut the sockets.
	c.sched.markAllDead(errCrashed{})
	c.sched.closeAll()
	c.stopIO()
}

type errCrashed struct{}

func (errCrashed) Error() string { return "nettransport: rank crashed (fail-stop)" }

// Close performs the clean shutdown handshake: a Bye frame to every live
// peer, the send scheduler drained, the readiness loop stopped, sockets
// closed. After Close the endpoint must not be used. Losses observed
// during teardown never count as deaths.
func (c *Comm) Close() {
	if !c.shut() {
		return
	}
	for r, cs := range c.conns {
		if cs != nil {
			c.sched.enqueue(r, outFrame{hdr: encodeBye()})
		}
	}
	c.sched.closeAll()
	<-c.sched.done // writer flushed (or gave up); the Byes are on the wire
	c.stopIO()
}

// shut marks the endpoint closed, so losses from here on are expected,
// and stops the FEC timers. It reports false when the endpoint already
// was closed.
func (c *Comm) shut() bool {
	c.mu.Lock()
	was := c.closed
	c.closed = true
	c.mu.Unlock()
	if !was && c.fecTx != nil {
		c.fecTx.shutdown()
	}
	return !was
}

// stopIO stops the readiness loop, then closes the sockets: the loop
// must stop before the raw fds close.
func (c *Comm) stopIO() {
	if c.io != nil {
		c.io.stop()
	}
	for _, cs := range c.conns {
		if cs != nil {
			cs.conn.Close()
			if cs.file != nil {
				cs.file.Close()
			}
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
}

// ---- comm.FailStop implementation ----

// CrashesEnabled reports whether crash rules are armed anywhere in this
// world — every rank must agree so the FT collectives pick one path.
func (c *Comm) CrashesEnabled() bool { return c.cfg.crashArmed }

// ConfirmedDead returns a fresh detector-confirmed death mask.
func (c *Comm) ConfirmedDead() []bool { return c.det.ConfirmedMask(c.size) }

// TakeNotices drains this rank's pending control-plane notices.
func (c *Comm) TakeNotices() []comm.Notice { return c.eng.TakeNotices() }

// WaitEvent blocks until a completion callback fires or a new notice
// arrives. Legal with no operation in flight.
func (c *Comm) WaitEvent() { c.eng.WaitEvent() }

// CancelRecv retracts a posted, unmatched receive. Returns false when
// the receive already matched (its callback still fires — with the
// payload, or with the structured error its sender's death produces).
func (c *Comm) CancelRecv(r comm.Request) bool { return c.eng.CancelRecv(r) }

// Commit fans a NoticeCommit out to every live rank. Counts as a send
// initiation, so a crash scheduled at the root's commit point fires here.
func (c *Comm) Commit(seq int, survivors []bool) {
	c.noteSend()
	frame := encodeCommit(seq, survivors)
	down := c.det.DeadMask(c.size)
	for r, cs := range c.conns {
		if cs == nil || down[r] {
			continue
		}
		c.sched.enqueue(r, outFrame{hdr: append([]byte(nil), frame...)})
	}
}
