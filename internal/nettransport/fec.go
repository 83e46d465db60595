package nettransport

import (
	"hash/crc32"
	"sync"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/progress"
)

// Forward error correction over the socket transport's eager frame
// stream — the only substrate where sender and receiver genuinely share
// nothing but the wire. The sender half (fecSender) runs the shared
// per-link framer of internal/fec, keeps its own snapshot of every
// payload, and when a group seals (K members or the idle-flush timer)
// ships each parity shard as a fecpar frame carrying the group roster.
// The receiver half (fecTracker) retains a copy of every delivered
// eager payload, and on each parity arrival greedily checks the group:
// erasures within the surviving parity are decoded by the shared repair
// step and delivered through the normal envelope path (the engine
// suppresses duplicates by (src, xid)), then the group is acknowledged.
//
// The ARQ backstop is the sender's per-group timer: a group not acked
// within the retransmit timeout is resent whole — every member and
// parity shard drawing fresh chaos verdicts — with full-jitter backoff,
// and after the attempt budget the sender tombstones the group
// (fecdead), which fails still-missing members at the receiver with a
// structured *faults.TimeoutError. Loss within the parity budget
// therefore costs no retransmit round trip (the ack beats the timer),
// and loss beyond it degrades to exactly the retry/timeout semantics
// the other substrates implement.
//
// Scope: chaos verdicts and FEC cover eager frames only. Rendezvous
// legs (RTS/CTS/DATA) and the control plane ride clean TCP — the
// protocol-level loss story for multi-frame transfers is future work.

// ---------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------

// fecSender is one endpoint's sender half: the shared per-link framer
// cuts each destination's eager stream into groups; sealed groups wait
// here for the receiver's ack under the resend timer. Isend runs on the
// owner goroutine, but flush/retransmit timers and acks (I/O loop) need
// the mutex.
type fecSender struct {
	c      *Comm
	rec    faults.Recovery
	framer *fec.Framer[*txMember]

	mu     sync.Mutex
	sent   map[peerXid]*txGroup // (dst, gid) -> awaiting ack
	closed bool
}

// txMember is one eager segment retained by its group: roster metadata
// plus the framer-owned true-bytes snapshot (nil for elided payloads).
type txMember struct {
	meta    fecMeta
	payload []byte
}

// txGroup is a sealed group awaiting its ack. Group ids are per link, so
// the receiver retires resolved groups behind a watermark.
type txGroup struct {
	*fec.Group[*txMember]
	metas    []fecMeta
	attempts int  // transmissions spent (initial send is attempt 0)
	fellBack bool // timer fired at least once: the ARQ path ran
	timer    *time.Timer
}

func newFecSender(c *Comm) *fecSender {
	rec := c.cfg.chaosRec
	if rec.MaxAttempts == 0 {
		rec = faults.DefaultRecovery()
	}
	f := &fecSender{c: c, rec: rec, sent: make(map[peerXid]*txGroup)}
	f.framer = fec.NewFramer(c.cfg.fecCfg, &c.fecStats, fec.Hooks[*txMember]{
		// Idle flush: a trickling stream must not park its losses past a
		// fraction of the RTO — unrepaired members wait on the group's
		// parity before any resend can help them.
		FlushAfter: rec.RTO / 4,
		After:      func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		Shard:      func(m *txMember) []byte { return m.payload },
		Seal:       f.seal,
	})
	return f
}

// send carries one eager segment under FEC: transmit it now (under this
// attempt's verdict), enroll it in the destination's open group. Takes
// ownership of payload. Owner goroutine.
func (f *fecSender) send(dst int, meta fecMeta, payload []byte) {
	f.c.transmitEager(dst, meta, payload, 0)
	if !f.framer.Add(f.c.rank, dst, &txMember{meta: meta, payload: payload}) {
		comm.PutBuf(payload)
	}
}

// seal ships a sealed group's parity, then parks the group awaiting the
// receiver's ack under the retransmit timer.
func (f *fecSender) seal(g *fec.Group[*txMember]) {
	tg := &txGroup{Group: g, metas: make([]fecMeta, len(g.Members))}
	for i, mem := range g.Members {
		tg.metas[i] = mem.meta
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		f.releaseLocked(tg)
		return
	}
	f.sent[peerXid{g.Dst, g.ID}] = tg
	f.transmitParityLocked(tg, 0)
	tg.timer = time.AfterFunc(f.rec.RetryDelay(0, g.ID), func() { f.expire(tg) })
}

// transmitParityLocked ships each parity shard as one fecpar frame under
// this attempt's chaos verdict (parity is redundancy: a dropped shard is
// simply absent until the next whole-group resend).
func (f *fecSender) transmitParityLocked(g *txGroup, attempt int) {
	c := f.c
	roster := make([]byte, 0, len(g.metas)*fecMetaLen)
	for _, m := range g.metas {
		roster = appendFecMeta(roster, m)
	}
	for j, shard := range g.Parity {
		// The verdict needs a message identity; parity has no tag or xid of
		// its own, so it borrows a KindFec tag and a group-derived id.
		ptag := comm.MakeTag(comm.KindFec, int(g.ID%uint64(comm.SeqWrap)), j)
		pxid := g.ID<<6 | uint64(j)
		v := c.inj.Message(c.rank, g.Dst, ptag, pxid, attempt, c.Now(), len(shard))
		if v.Drop {
			continue
		}
		body := comm.GetBuf(len(roster) + len(shard))
		copy(body, roster)
		copy(body[len(roster):], shard)
		crc := crc32.ChecksumIEEE(body)
		if v.Corrupt {
			body[int(pxid)%len(body)] ^= 0xa5
		}
		hdr := encodeFecParityHdr(g.ID, len(g.metas), g.Params.M, j, crc, len(body))
		c.enqueueAfter(v.Extra, g.Dst, outFrame{hdr: hdr, payload: body, pooled: true})
	}
}

// expire is the group's retransmit timer: resend everything, or give up
// past the attempt budget and tombstone so the receiver can fail the
// missing members structurally.
func (f *fecSender) expire(g *txGroup) {
	c := f.c
	key := peerXid{g.Dst, g.ID}
	f.mu.Lock()
	if f.closed || f.sent[key] != g {
		f.mu.Unlock()
		return
	}
	if !g.fellBack {
		// First fire: this group's losses outran (or lost) its parity and
		// the ARQ path is now paying round trips for it.
		g.fellBack = true
		c.fecStats.GroupLost()
	}
	g.attempts++
	if g.attempts >= f.rec.MaxAttempts {
		delete(f.sent, key)
		metas, attempts := g.metas, g.attempts
		f.releaseLocked(g)
		f.mu.Unlock()
		c.inj.NoteTimeout()
		// The tombstone is the sender's final word — group control
		// traffic, not subject to injection.
		c.sched.enqueue(g.Dst, outFrame{hdr: encodeFecDead(g.ID, attempts, metas)})
		return
	}
	for _, mem := range g.Members {
		c.inj.NoteRetry()
		c.transmitEager(g.Dst, mem.meta, mem.payload, g.attempts)
	}
	f.transmitParityLocked(g, g.attempts)
	g.timer = time.AfterFunc(f.rec.RetryDelay(g.attempts, g.ID), func() { f.expire(g) })
	f.mu.Unlock()
}

// onAck releases a group the receiver has fully delivered. I/O loop
// goroutine.
func (f *fecSender) onAck(src int, gid uint64) {
	key := peerXid{src, gid}
	f.mu.Lock()
	if g := f.sent[key]; g != nil {
		delete(f.sent, key)
		g.timer.Stop()
		f.releaseLocked(g)
	}
	f.mu.Unlock()
}

func (f *fecSender) releaseLocked(g *txGroup) {
	for _, mem := range g.Members {
		if mem.payload != nil {
			comm.PutBuf(mem.payload)
			mem.payload = nil
		}
	}
	for _, p := range g.Parity {
		comm.PutBuf(p)
	}
	g.Parity = nil
}

// shutdown stops every timer and releases retained buffers (endpoint
// teardown; in-flight groups are abandoned, like any other frame cut off
// by Close).
func (f *fecSender) shutdown() {
	open := f.framer.Shutdown()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for _, g := range open {
		f.releaseLocked(&txGroup{Group: g})
	}
	for key, g := range f.sent {
		delete(f.sent, key)
		g.timer.Stop()
		f.releaseLocked(g)
	}
}

// transmitEager puts one wire copy of an eager segment on dst's queue
// per the chaos verdict for this attempt: drops never enqueue, corrupt
// copies fly with damaged bytes (the CRC still describes the true
// payload, so the receiver discards them), duplicates enqueue twice.
// data is borrowed, never retained.
func (c *Comm) transmitEager(dst int, meta fecMeta, data []byte, attempt int) {
	v := c.inj.Message(c.rank, dst, meta.tag, meta.xid, attempt, c.Now(), meta.size)
	if v.Drop {
		return
	}
	crc := crc32.ChecksumIEEE(data)
	wire := func() []byte {
		if data == nil {
			return nil
		}
		b := comm.GetBuf(len(data))
		copy(b, data)
		return b
	}
	hdr := encodeEagerHdr(frameEager, meta.tag, meta.xid, meta.size, len(data), meta.hasData, crc)
	first := wire()
	if v.Corrupt {
		if len(first) > 0 {
			first[int(meta.xid)%len(first)] ^= 0xa5
		} else {
			// Nothing to flip in the payload: damage the checksum field.
			hdr[len(hdr)-4] ^= 0xa5
		}
	}
	c.enqueueAfter(v.Extra, dst, outFrame{hdr: hdr, payload: first, pooled: true})
	if v.Dup {
		c.enqueueAfter(v.Extra, dst, outFrame{hdr: hdr, payload: wire(), pooled: true})
	}
}

// enqueueAfter puts fr on dst's queue after a verdict's extra delay.
func (c *Comm) enqueueAfter(d time.Duration, dst int, fr outFrame) {
	if d > 0 {
		time.AfterFunc(d, func() { c.sched.enqueue(dst, fr) })
		return
	}
	c.sched.enqueue(dst, fr)
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

// fecTracker is one endpoint's receive-side FEC state: retained payload
// copies and group reconstruction. Duplicate suppression (resends and
// dup verdicts mean a frame can arrive twice) is the engine's, keyed on
// (src, xid). Frames arrive on the I/O loop; the mutex covers the
// goroutine-per-conn fallback driver and Close races. Arrivals from one
// source are serialized — they are read off one connection — so a
// tombstone checking Engine.Delivered before the Arrive that records a
// failure is exact.
type fecTracker struct {
	c *Comm

	mu     sync.Mutex
	recent map[peerXid][]byte   // (src, xid) -> payload copy awaiting group resolution
	groups map[peerXid]*rxGroup // (src, gid) -> group known from its parity
	done   []progress.XidSet    // per src: resolved gids (late parity discarded)
}

// rxGroup is a group known from at least one parity arrival.
type rxGroup struct {
	metas  []fecMeta
	parity [][]byte // arrived shards by index, pooled
	got    int
}

// rxWork is what resolving groups leaves to do outside the tracker lock:
// repaired segments to deliver and groups to acknowledge.
type rxWork struct {
	segs []rxSeg
	acks []uint64
}

type rxSeg struct {
	meta fecMeta
	data []byte
}

func newFecTracker(c *Comm) *fecTracker {
	return &fecTracker{c: c, recent: make(map[peerXid][]byte),
		groups: make(map[peerXid]*rxGroup), done: make([]progress.XidSet, c.size)}
}

// arriveEager hands one eager payload to the engine, or disposes of it
// when the engine already delivered that xid, and reports which. Owns
// payload.
func (c *Comm) arriveEager(src int, tag comm.Tag, xid uint64, size int, hasData bool, payload []byte) bool {
	msg := comm.Msg{Size: size}
	if hasData {
		if payload == nil {
			payload = []byte{} // zero-byte payload, not elided
		}
		msg.Data = payload
		if len(msg.Data) != size {
			msg.Data = msg.Data[:size]
		}
	} else if payload != nil {
		comm.PutBuf(payload)
		payload = nil
	}
	if c.eng.Arrive(&progress.Env{Src: src, Tag: tag, Msg: msg, HasData: hasData, Xid: xid}) != progress.ArriveDuplicate {
		return true
	}
	if c.inj != nil {
		c.inj.NoteSuppressed()
	}
	if payload != nil {
		comm.PutBuf(payload)
	}
	return false
}

// onEager delivers one CRC-clean eager frame under FEC and retains a
// copy for the group machinery, unless the engine suppressed it as a
// duplicate. Owns payload.
func (t *fecTracker) onEager(src int, tag comm.Tag, xid uint64, size int, hasData bool, payload []byte) {
	// Copy before delivery: the receiver owns payload from then on.
	cp := []byte{}
	if len(payload) > 0 {
		cp = comm.GetBuf(len(payload))
		copy(cp, payload)
	}
	if !t.c.arriveEager(src, tag, xid, size, hasData, payload) {
		comm.PutBuf(cp)
		return
	}
	t.mu.Lock()
	t.recent[peerXid{src, xid}] = cp
	// A parked group waiting on exactly this member (a delayed or resent
	// copy arriving after its parity) may now be resolvable.
	var w rxWork
	for key, g := range t.groups {
		if key.peer != src {
			continue
		}
		for _, m := range g.metas {
			if m.xid == xid {
				t.evaluateLocked(src, key.xid, g, &w)
				break
			}
		}
	}
	t.mu.Unlock()
	t.dispatch(src, w)
}

// onParity registers one CRC-clean parity shard and greedily evaluates
// its group. body (pooled) is the roster followed by the shard bytes.
func (t *fecTracker) onParity(src int, gid uint64, k, m, idx int, body []byte) {
	t.mu.Lock()
	if t.done[src].Has(gid) {
		t.mu.Unlock()
		comm.PutBuf(body)
		return
	}
	g := t.groups[peerXid{src, gid}]
	if g == nil {
		g = &rxGroup{metas: make([]fecMeta, k), parity: make([][]byte, m)}
		for i := 0; i < k; i++ {
			g.metas[i] = parseFecMeta(body[i*fecMetaLen:])
		}
		t.groups[peerXid{src, gid}] = g
	}
	if g.parity[idx] == nil {
		shard := body[k*fecMetaLen:]
		cp := []byte{}
		if len(shard) > 0 {
			cp = comm.GetBuf(len(shard))
			copy(cp, shard)
		}
		g.parity[idx] = cp
		g.got++
	}
	comm.PutBuf(body)
	var w rxWork
	t.evaluateLocked(src, gid, g, &w)
	t.mu.Unlock()
	t.dispatch(src, w)
}

// evaluateLocked resolves a group if it can: all members present → ack;
// erasures within arrived parity → reconstruct, deliver, ack. The
// deliveries and the ack land in w, for the caller to dispatch outside
// the lock.
func (t *fecTracker) evaluateLocked(src int, gid uint64, g *rxGroup, w *rxWork) {
	k := len(g.metas)
	data, sizes := make([][]byte, k), make([]int, k)
	missing := 0
	for i, mt := range g.metas {
		sizes[i] = mt.plen
		if data[i] = t.recent[peerXid{src, mt.xid}]; data[i] == nil {
			missing++
		}
	}
	// Short of parity: more may arrive, or the resend will.
	if !fec.Recoverable(missing, g.got) ||
		!t.c.fecStats.Repair(fec.Params{K: k, M: len(g.parity)}, data, g.parity, sizes) {
		return
	}
	for i, mt := range g.metas {
		if _, ok := t.recent[peerXid{src, mt.xid}]; !ok {
			w.segs = append(w.segs, rxSeg{mt, data[i]})
		}
	}
	t.retireLocked(src, gid, g.metas)
	w.acks = append(w.acks, gid)
}

// retireLocked forgets a resolved group: evict retained member copies,
// release its parity, and remember the gid so late shards are discarded.
func (t *fecTracker) retireLocked(src int, gid uint64, metas []fecMeta) {
	for _, mt := range metas {
		key := peerXid{src, mt.xid}
		if b, ok := t.recent[key]; ok {
			comm.PutBuf(b)
			delete(t.recent, key)
		}
	}
	if g := t.groups[peerXid{src, gid}]; g != nil {
		for _, p := range g.parity {
			if p != nil {
				comm.PutBuf(p)
			}
		}
		delete(t.groups, peerXid{src, gid})
	}
	t.done[src].Add(gid)
}

// onDead handles a sender's give-up tombstone: every member the
// receiver never saw fails its matched (or future) receive with the
// structured timeout. roster is the frame's non-pooled meta block.
func (t *fecTracker) onDead(src int, gid uint64, attempts int, roster []byte) {
	t.mu.Lock()
	if t.done[src].Has(gid) {
		t.mu.Unlock()
		return
	}
	var envs []*progress.Env
	metas := make([]fecMeta, len(roster)/fecMetaLen)
	for i := range metas {
		mt := parseFecMeta(roster[i*fecMetaLen:])
		metas[i] = mt
		if !t.c.eng.Delivered(src, mt.xid) {
			envs = append(envs, &progress.Env{Src: src, Tag: mt.tag,
				Msg: comm.Msg{Size: mt.size}, HasData: mt.hasData, Xid: mt.xid,
				Err: &faults.TimeoutError{Rank: src, Peer: t.c.rank, Tag: mt.tag,
					Attempts: attempts}})
		}
	}
	t.retireLocked(src, gid, metas)
	t.mu.Unlock()
	for _, env := range envs {
		t.c.eng.Arrive(env)
	}
}

// dispatch performs deferred deliveries and acks outside the tracker
// lock (Arrive takes the engine lock; the ack draws an injector verdict
// and enqueues on the scheduler).
func (t *fecTracker) dispatch(src int, w rxWork) {
	for _, s := range w.segs {
		t.c.arriveEager(src, s.meta.tag, s.meta.xid, s.meta.size, s.meta.hasData, s.data)
	}
	for _, gid := range w.acks {
		if t.c.inj != nil &&
			t.c.inj.AckDrop(t.c.rank, src, comm.MakeTag(comm.KindFec, int(gid%uint64(comm.SeqWrap)), 0), gid, 0, t.c.Now()) {
			continue // lost ack: the sender's timer will resend the group
		}
		t.c.sched.enqueue(src, outFrame{hdr: encodeFecAck(gid)})
	}
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

// FaultStats returns this endpoint's injector counters (zero without
// WithChaos).
func (c *Comm) FaultStats() faults.Stats {
	if c.inj == nil {
		return faults.Stats{}
	}
	return c.inj.Stats()
}

// FECStats returns this endpoint's FEC counters: parity and lost groups
// from its sender half, reconstructions from its receiver half.
func (c *Comm) FECStats() fec.Stats { return c.fecStats.Stats() }
