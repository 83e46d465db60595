package main

import (
	"time"

	"adapt/internal/comm"
)

// probeComm wraps one rank's comm.Comm in the traced run. It counts the
// point-to-point posts the collective makes (progress.posts_per_op) and
// times the collective's completion callbacks (core.callback_ns). A rank
// is single-threaded (comm.Comm's contract), so its counters need no
// lock; each rank has its own.
type probeComm struct {
	comm.Comm
	c *probeCounts
}

type probeCounts struct {
	sends, recvs int64
	callbacks    int64
	cbSelfNS     int64
	childNS      []int64 // callback nesting stack: time of nested callbacks
}

func (p *probeCounts) add(o *probeCounts) {
	p.sends += o.sends
	p.recvs += o.recvs
	p.callbacks += o.callbacks
	p.cbSelfNS += o.cbSelfNS
}

func (p probeComm) Isend(dst int, tag comm.Tag, msg comm.Msg) comm.Request {
	p.c.sends++
	return p.Comm.Isend(dst, tag, msg)
}

func (p probeComm) Irecv(src int, tag comm.Tag) comm.Request {
	p.c.recvs++
	return p.Comm.Irecv(src, tag)
}

// OnComplete times fn's self time: its wall time minus that of any
// callback that fires inside it.
func (p probeComm) OnComplete(r comm.Request, fn func(comm.Status)) {
	c := p.c
	p.Comm.OnComplete(r, func(st comm.Status) {
		c.childNS = append(c.childNS, 0)
		t0 := time.Now()
		fn(st)
		d := int64(time.Since(t0))
		top := len(c.childNS) - 1
		c.cbSelfNS += d - c.childNS[top]
		c.childNS = c.childNS[:top]
		if top > 0 {
			c.childNS[top-1] += d
		}
		c.callbacks++
	})
}
