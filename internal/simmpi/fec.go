package simmpi

import (
	"fmt"

	"adapt/internal/comm"
	"adapt/internal/fec"
	"adapt/internal/trace"
)

// Forward error correction over the chaos transport's eager segment
// stream. Every eager transmission on a faulted world with FEC enabled
// is shadowed in the shared per-link framer (fec.Framer), which keeps
// its own copy of the payload. Once a group seals, each parity shard
// flies across the fabric as one unacknowledged attempt under a KindFec
// tag. When every fate in the group is known and the erasures are within
// the surviving parity, the shared repair step decodes the missing
// payloads and xmit.repair completes each lost transmission exactly as
// if its wire copy had arrived; the repair-ack stops the sender's
// retransmit timer, so loss within the parity budget costs no round
// trip. The RTO timers stay armed throughout: a group whose erasures
// outrun its parity falls back to per-message retransmission. The
// simulator is one address space, so the receiver's view hangs off the
// sender's group; the parity still crosses the fabric and draws real
// fault verdicts.

// EnableFEC arms erasure coding over the eager segment stream. Must be
// called after InstallFaults (FEC shadows the chaos transport) and
// before Spawn.
func (w *World) EnableFEC(cfg fec.Config) {
	if w.inj == nil {
		panic("simmpi: EnableFEC before InstallFaults")
	}
	if !cfg.Enabled() {
		return
	}
	w.fec = fec.NewFramer(cfg, &w.fecStats, fec.Hooks[*fecMember]{
		// Idle flush: a trickling stream must not hold a group open past a
		// fraction of the RTO, or the parity could lose the race against
		// the first member's retransmit timer.
		FlushAfter: w.rec.RTO / 4,
		After:      w.K.Schedule,
		Shard:      func(mem *fecMember) []byte { return mem.shard },
		Seal:       w.sealFEC,
	})
}

// FECStats returns what the FEC layer did; zero when not enabled.
func (w *World) FECStats() fec.Stats { return w.fecStats.Stats() }

// fecGroup is the receiver-side state of one sealed group. The simulator
// is one address space, so it hangs off the sender's group: parity
// arrivals and member fates resolve it.
type fecGroup struct {
	w        *World
	g        *fec.Group[*fecMember]
	resolved bool
	// parity[j] is parity shard j's bytes once its copy arrived, nil
	// while in flight or lost; decided marks settled shards and
	// parityLeft counts the rest.
	parity     [][]byte
	decided    []bool
	parityLeft int
}

// fecMember is one eager transmission enrolled in a group.
type fecMember struct {
	g     *fecGroup // set when the group seals
	x     *xmit
	tag   comm.Tag
	msg   comm.Msg // original metadata (logical size, memory space)
	shard []byte   // framer-owned payload copy; nil for elided payloads
	d     *Comm
	post  uint64 // sender's PostID, for the causal trace edge
}

// enrollFEC snapshots eager transmission x into its link's open group.
// retained is the chaos transport's transmission buffer (nil for elided
// payloads); the framer takes its own copy, since retained is released
// the moment the transmission acks.
func (w *World) enrollFEC(x *xmit, d *Comm, tag comm.Tag, msg comm.Msg, postID uint64, retained []byte) *fecMember {
	mem := &fecMember{x: x, tag: tag, msg: msg, d: d, post: postID}
	if retained != nil {
		mem.shard = comm.GetBuf(len(retained))
		copy(mem.shard, retained)
	}
	w.fec.Add(x.src, x.dst, mem)
	return mem
}

// sealFEC takes over a sealed group: fly each parity shard as one
// unacknowledged attempt under a KindFec tag, then try to resolve.
func (w *World) sealFEC(sg *fec.Group[*fecMember]) {
	m := sg.Params.M
	g := &fecGroup{w: w, g: sg, parity: make([][]byte, m), decided: make([]bool, m), parityLeft: m}
	for _, mem := range sg.Members {
		mem.g = g
	}
	src, dst := sg.Src, sg.Dst
	for j := range sg.Parity {
		j, buf := j, sg.Parity[j]
		ptag := comm.MakeTag(comm.KindFec, int(sg.Serial%comm.SeqWrap), j)
		w.xmitSeq++
		pid := w.xmitSeq
		v := w.inj.Message(src, dst, ptag, pid, 0, w.K.Now(), len(buf))
		if v.Drop {
			w.traceFault(trace.FaultDrop, src, dst, ptag, len(buf), pid)
			comm.PutBuf(buf)
			g.parityFate(j, nil)
			continue
		}
		w.K.Schedule(v.Extra, func() {
			w.Net.StartTransfer(src, dst, len(buf), comm.MemDefault, nil, func() {
				if v.Corrupt || w.crash.Dead(src) || w.crash.Dead(dst) {
					// Damaged (checksum-caught) or annihilated: a lost shard.
					comm.PutBuf(buf)
					g.parityFate(j, nil)
					return
				}
				g.parityFate(j, buf)
			})
		})
	}
	g.tryResolve()
}

// parityFate records parity shard j's outcome (bytes, or nil = lost).
func (g *fecGroup) parityFate(j int, bytes []byte) {
	if g.decided[j] {
		panic(fmt.Sprintf("simmpi: fec group %d parity %d resolved twice", g.g.Serial, j))
	}
	g.decided[j] = true
	g.parity[j] = bytes
	g.parityLeft--
	g.tryResolve()
}

// arrived notes that the member's wire copy was delivered.
func (mem *fecMember) arrived() {
	if mem.g != nil {
		mem.g.tryResolve()
	}
}

// settled reports whether the member's first-attempt fate is known:
// delivered, failed, or lost in flight (verdict known at send time).
func (mem *fecMember) settled() bool {
	return mem.x.st.delivered || mem.x.st.failed || mem.x.firstLost
}

// tryResolve fires once every fate in the group is known: members
// delivered/lost/failed, parity shards arrived/lost. Within-parity
// erasures reconstruct and repair; beyond it the group is lost to the
// ARQ backstop (whose timers have been running all along).
func (g *fecGroup) tryResolve() {
	if g.resolved || g.parityLeft > 0 {
		return
	}
	members := g.g.Members
	for _, mem := range members {
		if !mem.settled() {
			return
		}
	}
	g.resolved = true
	defer g.release()
	w := g.w
	var missing []int
	lost, have := 0, 0
	data := make([][]byte, len(members))
	sizes := make([]int, len(members))
	for i, mem := range members {
		if mem.x.firstLost {
			lost++
		}
		sizes[i] = len(mem.shard)
		if !mem.x.st.delivered && !mem.x.st.failed {
			missing = append(missing, i)
		} else if data[i] = mem.shard; data[i] == nil {
			data[i] = []byte{}
		}
	}
	for _, p := range g.parity {
		if p != nil {
			have++
		}
	}
	m := g.g.Params.M
	w.fec.Ctl.Observe(g.g.Src, g.g.Dst, len(members)+m, lost+m-have)
	if len(missing) == 0 || !w.fecStats.Repair(g.g.Params, data, g.parity, sizes) {
		return
	}
	for _, i := range missing {
		mem, decoded := members[i], data[i]
		mem.x.repair(func() {
			del := mem.msg
			if mem.msg.Data != nil {
				del.Data = decoded // pooled; owned by the receiver from here
			}
			env := mem.d.eng.NewEnv(g.g.Src, mem.tag, del, nil)
			env.PostID = mem.post
			mem.d.arrive(env)
		})
	}
}

// release returns the group's framer-owned buffers to the pool. Repaired
// payloads are separate decode buffers already handed to receivers.
func (g *fecGroup) release() {
	for _, mem := range g.g.Members {
		if mem.shard != nil {
			comm.PutBuf(mem.shard)
			mem.shard = nil
		}
	}
	for _, p := range g.parity {
		if p != nil {
			comm.PutBuf(p)
		}
	}
	g.parity = nil
}
