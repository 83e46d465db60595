package simmpi

import (
	"adapt/internal/comm"
	"adapt/internal/netmodel"
	"adapt/internal/progress"
)

// xfer is one fault-free point-to-point message in flight: a pooled,
// per-world state machine whose steps are typed kernel events (the
// embedded netmodel.Flight for hops, the xfer itself for protocol
// delays), so moving a message schedules no closures.
//
//	eager:      [lag] launch → Flight (Sent: sender completes;
//	            Landed: payload arrives at the receiver)
//	rendezvous: [lag] launch → RTS delay → arrive; on match, CTS delay →
//	            Flight (Sent: sender completes; Landed: deliver)
//	deliver:    [unexpected copy-out] → device hop Flight or a same-instant
//	            event → receive completes
//
// The event shapes — how many events each step takes, and in which order
// each schedules the next — fix the kernel's (at, seq) dispatch order,
// which the replay goldens and the conformance grids were recorded under.
type xfer struct {
	fl    netmodel.Flight
	phase xferPhase
	from  *Comm         // sending rank
	to    *Comm         // receiving rank
	req   *progress.Req // the sender's request, or after a match the receiver's
	rts   *progress.Req // rendezvous: the sender's request, completed at Sent
	tag   comm.Tag
	msg   comm.Msg // the sender's message
	data  []byte   // receiver-owned pooled copy of msg.Data, if real
}

type xferPhase uint8

const (
	xLaunch  xferPhase = iota // flat-mode lag elapsed: run the send protocol
	xRTS                      // rendezvous announcement reaches the receiver
	xCTS                      // grant reaches the sender: the data flies
	xEager                    // eager payload in flight
	xData                     // rendezvous payload in flight
	xCopyOut                  // unexpected-queue copy-out penalty elapsed
	xDeliver                  // landing in the receive buffer
)

func (w *World) newXfer(phase xferPhase, from, to *Comm, req *progress.Req, tag comm.Tag, msg comm.Msg) *xfer {
	var x *xfer
	if n := len(w.xferFree); n > 0 {
		x = w.xferFree[n-1]
		w.xferFree = w.xferFree[:n-1]
	} else {
		x = new(xfer)
	}
	x.phase, x.from, x.to, x.req, x.tag, x.msg = phase, from, to, req, tag, msg
	return x
}

// free returns x to the pool. Callers copy out what they still need.
func (w *World) freeXfer(x *xfer) {
	*x = xfer{}
	w.xferFree = append(w.xferFree, x)
}

// snapshot takes the receiver-owned pooled copy of a real payload.
func (x *xfer) snapshot() {
	if x.msg.Data != nil {
		x.data = comm.GetBuf(len(x.msg.Data))
		copy(x.data, x.msg.Data)
	}
}

// received is the message as the receiver holds it: the sender's
// descriptor over the receiver-owned copy.
func (x *xfer) received() comm.Msg {
	m := x.msg
	if m.Data != nil {
		m.Data = x.data
	}
	return m
}

// Fire runs a protocol-delay step.
func (x *xfer) Fire() {
	w := x.from.w
	switch x.phase {
	case xLaunch:
		c, req, dst, tag, msg := x.from, x.req, x.to.rank, x.tag, x.msg
		w.freeXfer(x)
		c.launchSend(req, dst, tag, msg)
	case xRTS:
		d := x.to
		env := d.eng.NewEnv(x.from.rank, x.tag, x.msg, x.req)
		env.PostID = x.req.PostID
		w.freeXfer(x)
		d.arrive(env)
	case xCTS:
		x.snapshot()
		x.phase = xData
		w.Net.Fly(&x.fl, x.from.rank, x.to.rank, x.msg.Size, x.msg.Space, x)
	case xCopyOut:
		x.deliver()
	case xDeliver:
		x.complete()
	}
}

// Sent completes the sending side at the end of the first hop.
func (x *xfer) Sent() {
	switch x.phase {
	case xEager:
		x.req.Complete(comm.Status{Source: x.from.rank, Tag: x.tag, Msg: x.msg})
	case xData:
		x.rts.Complete(comm.Status{Source: x.from.rank, Tag: x.tag, Msg: x.msg})
	}
}

// Landed ends a Flight: an eager payload arrives at the receiver, a
// rendezvous payload moves on to delivery, a delivery completes.
func (x *xfer) Landed() {
	switch x.phase {
	case xEager:
		d := x.to
		env := d.eng.NewEnv(x.from.rank, x.tag, x.received(), nil)
		env.PostID = x.req.PostID
		x.from.w.freeXfer(x)
		d.arrive(env)
	case xData:
		x.deliver()
	case xDeliver:
		x.complete()
	}
}

// deliver lands the payload in the receive request's buffer: a device hop
// when it lives in device memory, else a same-instant completion event.
func (x *xfer) deliver() {
	x.phase = xDeliver
	w := x.to.w
	if !w.Net.FlyDeliver(&x.fl, x.from.rank, x.to.rank, x.msg.Size, x.req.Space, x) {
		w.K.ScheduleHandler(0, x)
	}
}

// complete finishes the receive request with the delivered payload.
func (x *xfer) complete() {
	req, st := x.req, comm.Status{Source: x.from.rank, Tag: x.tag, Msg: x.received()}
	x.to.w.freeXfer(x)
	req.Complete(st)
}
