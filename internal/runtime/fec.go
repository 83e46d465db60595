package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/fec"
	"adapt/internal/perf"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Forward error correction over the live runtime's eager segment
// stream, mirroring the simulator's layer (internal/simmpi/fec.go) with
// the same send-time resolution trick the chaos transport uses: the
// first attempt's verdict is drawn when the segment is sent, so a lost
// member is known immediately and simply parked in its group instead of
// entering the retry walk. When the group closes (K members or the
// idle-flush timer) the parity shards draw their own single-attempt
// verdicts; erasures within the surviving parity are reconstructed —
// genuinely decoded through the codec, not copied from the sender's
// buffer — and delivered with no retransmit backoff spent. Erasures
// beyond the parity fall back to the ARQ walk from attempt 1, keeping
// the structured-TimeoutError path intact.

// WithFEC arms erasure coding over the eager segment stream. Requires
// WithFaults (FEC shadows the chaos delivery path); without a fault
// plan the option is inert.
func WithFEC(cfg fec.Config) Option {
	return func(w *World) { w.fecCfg = cfg.Normalized() }
}

// FECStats returns what the FEC layer did; zero when not enabled.
func (w *World) FECStats() fec.Stats {
	if w.fec == nil {
		return fec.Stats{}
	}
	return fec.Stats{
		ParityEncoded: w.fec.encoded.Load(),
		Reconstructed: w.fec.reconstructed.Load(),
		GroupsLost:    w.fec.groupsLost.Load(),
	}
}

// fecCtl is the world's FEC layer: per-link open groups under a mutex
// (senders run on many rank goroutines) plus the adaptive redundancy
// controller.
type fecCtl struct {
	w   *World
	cfg fec.Config
	ctl *fec.Controller

	mu   sync.Mutex
	open map[uint64]*fecGroup // directed link -> group being filled

	encoded       atomic.Uint64
	reconstructed atomic.Uint64
	groupsLost    atomic.Uint64
}

func newFecCtl(w *World) *fecCtl {
	return &fecCtl{w: w, cfg: w.fecCfg, ctl: fec.NewController(w.fecCfg),
		open: make(map[uint64]*fecGroup)}
}

// fecGroup is one erasure-coding group on a directed link.
type fecGroup struct {
	id      uint64
	src, ds *Comm
	members []*fecMember
}

// fecMember is one eager segment enrolled in a group. Survivors were
// delivered at send time and leave a framer-owned shard copy behind;
// lost members park their undelivered envelope (whose payload doubles
// as the encode input) until the group resolves.
type fecMember struct {
	d     *Comm
	env   *progress.Env
	size  int
	vid   uint64 // per-link verdict identity (see chaosDeliver)
	lost  bool
	shard []byte
}

// send carries one eager envelope under FEC: resolve the first attempt's
// verdict, deliver survivors immediately, park losses in the group.
func (f *fecCtl) send(c *Comm, d *Comm, env *progress.Env, size int, vid uint64) {
	w := f.w
	v := w.inj.Message(c.rank, d.rank, env.Tag, vid, 0, c.Now(), size)
	mem := &fecMember{d: d, env: env, size: size, vid: vid, lost: v.Drop || v.Corrupt}
	if mem.lost {
		c.traceFault(trace.FaultDrop, d.rank, env.Tag, size, env.Xid)
	} else {
		if env.Msg.Data != nil {
			mem.shard = comm.GetBuf(len(env.Msg.Data))
			copy(mem.shard, env.Msg.Data)
		}
		if v.Dup {
			dup := *env
			if dup.Msg.Data != nil {
				buf := comm.GetBuf(len(dup.Msg.Data))
				copy(buf, dup.Msg.Data)
				dup.Msg.Data = buf
			}
			deliverAfter(d, &dup, v.Extra+w.rec.RTO/2)
		}
		deliverAfter(d, env, v.Extra)
	}

	key := uint64(uint32(c.rank))<<32 | uint64(uint32(d.rank))
	f.mu.Lock()
	g := f.open[key]
	if g == nil {
		// The first member's identity names the group: deterministic, and
		// independent of other links' traffic.
		g = &fecGroup{id: vid, src: c, ds: d}
		f.open[key] = g
		// Idle flush: a trickling stream must not hold its losses hostage
		// for long — unresolved members are invisible to the ARQ backstop
		// until the group closes.
		time.AfterFunc(w.rec.RTO/4, func() {
			f.mu.Lock()
			if f.open[key] == g {
				delete(f.open, key)
				f.mu.Unlock()
				f.close(g)
				return
			}
			f.mu.Unlock()
		})
	}
	g.members = append(g.members, mem)
	if len(g.members) >= f.cfg.K {
		delete(f.open, key)
		f.mu.Unlock()
		f.close(g)
		return
	}
	f.mu.Unlock()
}

// close seals a group: encode parity, draw each parity shard's one
// unacknowledged verdict, then either reconstruct the losses or hand
// them back to the retry walk.
func (f *fecCtl) close(g *fecGroup) {
	w := f.w
	k := len(g.members)
	m := f.ctl.ChooseM(g.src.rank, g.ds.rank, k)
	p := fec.Params{K: k, M: m}
	data := make([][]byte, k)
	sizes := make([]int, k)
	var missing []int
	for i, mem := range g.members {
		b := mem.shard
		if mem.lost {
			missing = append(missing, i)
			b = mem.env.Msg.Data
		}
		if b == nil {
			b = []byte{}
		}
		data[i] = b
		sizes[i] = len(b)
	}
	parity := fec.EncodeParity(p, data)
	f.encoded.Add(uint64(m))
	perf.RecordFecEncoded(m)
	have := 0
	for j := 0; j < m; j++ {
		ptag := comm.MakeTag(comm.KindFec, int(g.id%comm.SeqWrap), j)
		pxid := w.xmitSeq.Add(1)
		pv := w.inj.Message(g.src.rank, g.ds.rank, ptag, g.id, 0, g.src.Now(), len(parity[j]))
		if pv.Drop || pv.Corrupt {
			g.src.traceFault(trace.FaultDrop, g.ds.rank, ptag, len(parity[j]), pxid)
			comm.PutBuf(parity[j])
			parity[j] = nil
			continue
		}
		have++
	}
	f.ctl.Observe(g.src.rank, g.ds.rank, k+m, len(missing)+(m-have))

	recovered := false
	if len(missing) > 0 && fec.Recoverable(len(missing), have) {
		for _, i := range missing {
			data[i] = nil
		}
		if err := fec.Reconstruct(p, data, parity, sizes); err == nil {
			recovered = true
			for _, i := range missing {
				mem := g.members[i]
				if mem.env.Msg.Data != nil {
					// Deliver the decoded bytes, not the sender's retained
					// copy — the codec's output is what a remote receiver
					// would hold.
					comm.PutBuf(mem.env.Msg.Data)
					mem.env.Msg.Data = data[i]
				}
				f.reconstructed.Add(1)
				perf.RecordFecReconstructed()
				deliverAfter(mem.d, mem.env, 0)
			}
		}
	}
	if len(missing) > 0 && !recovered {
		f.groupsLost.Add(1)
		perf.RecordFecGroupLost()
		// ARQ backstop: attempt 0 is spent; resume the walk where a
		// retransmitting sender would be after its first timeout.
		for _, i := range missing {
			mem := g.members[i]
			g.src.chaosWalk(mem.d, mem.env, mem.size, mem.vid, 1, w.rec.RetryDelay(0, mem.vid))
		}
	}
	for _, mem := range g.members {
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
