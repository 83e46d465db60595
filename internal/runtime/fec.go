package runtime

import (
	"time"

	"adapt/internal/comm"
	"adapt/internal/fec"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Forward error correction over the live runtime's eager segment
// stream: the shared framer and repair step of internal/fec, with the
// send-time resolution the chaos transport uses. A member's first
// verdict is drawn when it is sent, so a lost member is parked in its
// group instead of entering the retry walk. When the group seals, the
// parity shards draw their own single-attempt verdicts; erasures within
// the surviving parity are decoded through the codec and delivered with
// no backoff spent, and erasures beyond it resume the ARQ walk at
// attempt 1.

// WithFEC arms erasure coding over the eager segment stream. Requires
// WithFaults (FEC shadows the chaos delivery path); without a fault
// plan the option is inert.
func WithFEC(cfg fec.Config) Option {
	return func(w *World) { w.fecCfg = cfg.Normalized() }
}

// FECStats returns what the FEC layer did; zero when not enabled.
func (w *World) FECStats() fec.Stats { return w.fecStats.Stats() }

// armFEC builds the world's framer (senders run on many rank goroutines;
// the framer locks).
func (w *World) armFEC() {
	w.fec = fec.NewFramer(w.fecCfg, &w.fecStats, fec.Hooks[*fecMember]{
		// Idle flush: a trickling stream must not hold its losses hostage
		// for long — unresolved members are invisible to the ARQ backstop
		// until the group closes.
		FlushAfter: w.rec.RTO / 4,
		After:      func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		Shard: func(mem *fecMember) []byte {
			if mem.lost {
				return mem.env.Msg.Data
			}
			return mem.shard
		},
		Seal: w.sealFEC,
	})
}

// fecMember is one eager segment enrolled in a group. Survivors were
// delivered at send time and leave a framer-owned shard copy behind;
// lost members park their undelivered envelope (whose payload doubles
// as the encode input) until the group resolves.
type fecMember struct {
	src   *Comm
	d     *Comm
	env   *progress.Env
	size  int
	vid   uint64 // per-link verdict identity (see chaosDeliver)
	lost  bool
	shard []byte
}

// sendFEC carries one eager envelope under FEC: resolve the first
// attempt's verdict, deliver survivors immediately, park losses in the
// group.
func (c *Comm) sendFEC(d *Comm, env *progress.Env, size int, vid uint64) {
	w := c.w
	v := w.inj.Message(c.rank, d.rank, env.Tag, vid, 0, c.Now(), size)
	mem := &fecMember{src: c, d: d, env: env, size: size, vid: vid, lost: v.Drop || v.Corrupt}
	if mem.lost {
		c.traceFault(trace.FaultDrop, d.rank, env.Tag, size, env.Xid)
	} else {
		if env.Msg.Data != nil {
			mem.shard = comm.GetBuf(len(env.Msg.Data))
			copy(mem.shard, env.Msg.Data)
		}
		c.land(d, env, v, 0)
	}
	w.fec.Add(c.rank, d.rank, mem)
}

// sealFEC takes over a sealed group: draw each parity shard's one
// unacknowledged verdict, then either reconstruct the losses or hand
// them back to the retry walk.
func (w *World) sealFEC(g *fec.Group[*fecMember]) {
	src, d := g.Members[0].src, g.Members[0].d
	// The first member's identity names the group: deterministic, and
	// independent of other links' traffic.
	gid := g.Members[0].vid
	k, m := g.Params.K, g.Params.M
	parity := g.Parity
	have := 0
	for j := 0; j < m; j++ {
		ptag := comm.MakeTag(comm.KindFec, int(gid%comm.SeqWrap), j)
		pv := w.inj.Message(src.rank, d.rank, ptag, gid, 0, src.Now(), len(parity[j]))
		if pv.Drop || pv.Corrupt {
			src.traceFault(trace.FaultDrop, d.rank, ptag, len(parity[j]), gid)
			comm.PutBuf(parity[j])
			parity[j] = nil
			continue
		}
		have++
	}
	data := make([][]byte, k)
	sizes := make([]int, k)
	var missing []int
	for i, mem := range g.Members {
		if mem.lost {
			missing = append(missing, i)
			sizes[i] = len(mem.env.Msg.Data)
		} else if data[i], sizes[i] = mem.shard, len(mem.shard); data[i] == nil {
			data[i] = []byte{}
		}
	}
	w.fec.Ctl.Observe(src.rank, d.rank, k+m, len(missing)+(m-have))

	if len(missing) > 0 {
		if w.fecStats.Repair(g.Params, data, parity, sizes) {
			for _, i := range missing {
				mem := g.Members[i]
				if mem.env.Msg.Data != nil {
					// Deliver the decoded bytes, not the sender's retained
					// copy — the codec's output is what a remote receiver
					// would hold.
					comm.PutBuf(mem.env.Msg.Data)
					mem.env.Msg.Data = data[i]
				}
				deliverAfter(mem.d, mem.env, 0)
			}
		} else {
			// ARQ backstop: attempt 0 is spent; resume the walk where a
			// retransmitting sender would be after its first timeout.
			for _, i := range missing {
				mem := g.Members[i]
				src.chaosWalk(mem.d, mem.env, mem.size, mem.vid, 1, w.rec.RetryDelay(0, mem.vid))
			}
		}
	}
	for _, mem := range g.Members {
		if mem.shard != nil {
			comm.PutBuf(mem.shard)
		}
	}
	for _, b := range parity {
		if b != nil {
			comm.PutBuf(b)
		}
	}
}
