package fec

import (
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/perf"
)

// The group path every substrate shares: the sender-side framer, the
// receiver-side repair step and the counters both feed. Each substrate
// still decides how parity travels and how a repaired segment is
// delivered.

// Counters is one substrate's FEC activity, safe for concurrent use.
// Every update also feeds the process-wide perf counters.
type Counters struct {
	encoded, reconstructed, lost atomic.Uint64
}

// Stats snapshots the counters.
func (c *Counters) Stats() Stats {
	return Stats{ParityEncoded: c.encoded.Load(), Reconstructed: c.reconstructed.Load(),
		GroupsLost: c.lost.Load()}
}

// GroupLost counts one group whose erasures outran its parity: recovery
// falls back to the ARQ path.
func (c *Counters) GroupLost() {
	c.lost.Add(1)
	perf.RecordFecGroupLost()
}

// Repair is the receive-side repair step. data holds a sealed group's
// member shards (nil: erased), parity its parity shards (nil: lost),
// sizes the members' true lengths. Erasures the surviving parity covers
// are rebuilt in place (see Reconstruct) and count as reconstructed;
// otherwise the group counts as lost. Reports whether every erasure was
// rebuilt, trivially so when none is missing.
func (c *Counters) Repair(p Params, data, parity [][]byte, sizes []int) bool {
	missing, have := 0, 0
	for _, d := range data {
		if d == nil {
			missing++
		}
	}
	for _, q := range parity {
		if q != nil {
			have++
		}
	}
	if missing == 0 {
		return true
	}
	if !Recoverable(missing, have) || Reconstruct(p, data, parity, sizes) != nil {
		c.GroupLost()
		return false
	}
	c.reconstructed.Add(uint64(missing))
	perf.RecordFecReconstructed(missing)
	return true
}

// Group is one erasure-coding group on the directed link Src→Dst. ID
// numbers it on its link from 1, densely, so a receiver can retire
// resolved groups behind a watermark; Serial numbers it across the
// framer's links in opening order. Params and Parity are set at sealing.
type Group[M any] struct {
	Src, Dst   int
	ID, Serial uint64
	Members    []M
	Params     Params
	Parity     [][]byte
}

// Hooks is what a substrate supplies to a Framer: the idle-flush delay
// (a trickling stream must not hold its losses past a fraction of the
// retransmit timeout), its clock, a member's payload for encoding (nil
// when elided), and Seal, which takes over a sealed group and runs
// without the framer's lock.
type Hooks[M any] struct {
	FlushAfter time.Duration
	After      func(d time.Duration, fn func())
	Shard      func(M) []byte
	Seal       func(*Group[M])
}

// Framer is the sender half: one open group per directed link, sealed
// when it reaches Config.K members or when its idle flush fires,
// FlushAfter past its opening. Sealing picks the parity count with Ctl,
// encodes the parity and hands the group to Hooks.Seal. Safe for
// concurrent use.
type Framer[M any] struct {
	Ctl   *Controller
	cfg   Config
	stats *Counters
	hooks Hooks[M]

	mu     sync.Mutex
	open   map[uint64]*Group[M] // directed link -> group being filled
	ids    map[uint64]uint64    // directed link -> groups opened on it
	serial uint64
	closed bool
}

// NewFramer builds a framer for cfg that counts its parity into stats.
func NewFramer[M any](cfg Config, stats *Counters, h Hooks[M]) *Framer[M] {
	cfg = cfg.Normalized()
	return &Framer[M]{Ctl: NewController(cfg), cfg: cfg, stats: stats, hooks: h,
		open: make(map[uint64]*Group[M]), ids: make(map[uint64]uint64)}
}

// Add enrolls m in the link's open group, opening one if needed, and
// seals the group once it is full. After Shutdown it reports false and
// leaves m with the caller.
func (f *Framer[M]) Add(src, dst int, m M) bool {
	key := linkKey(src, dst)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return false
	}
	g := f.open[key]
	opened := g == nil
	if opened {
		f.ids[key]++
		f.serial++
		g = &Group[M]{Src: src, Dst: dst, ID: f.ids[key], Serial: f.serial}
		f.open[key] = g
	}
	g.Members = append(g.Members, m)
	full := len(g.Members) >= f.cfg.K
	if full {
		delete(f.open, key)
	}
	f.mu.Unlock()
	if opened {
		f.hooks.After(f.hooks.FlushAfter, func() { f.flush(key, g) })
	}
	if full {
		f.seal(g)
	}
	return true
}

// flush seals a group its idle timer caught still open.
func (f *Framer[M]) flush(key uint64, g *Group[M]) {
	f.mu.Lock()
	open := !f.closed && f.open[key] == g
	if open {
		delete(f.open, key)
	}
	f.mu.Unlock()
	if open {
		f.seal(g)
	}
}

func (f *Framer[M]) seal(g *Group[M]) {
	k := len(g.Members)
	g.Params = Params{K: k, M: f.Ctl.ChooseM(g.Src, g.Dst, k)}
	data := make([][]byte, k)
	for i, m := range g.Members {
		if data[i] = f.hooks.Shard(m); data[i] == nil {
			data[i] = []byte{}
		}
	}
	g.Parity = EncodeParity(g.Params, data)
	f.stats.encoded.Add(uint64(g.Params.M))
	perf.RecordFecEncoded(g.Params.M)
	f.hooks.Seal(g)
}

// Shutdown stops the framer: later Adds are refused and pending flushes
// do nothing. It returns the groups still open, whose members the caller
// releases.
func (f *Framer[M]) Shutdown() []*Group[M] {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	var open []*Group[M]
	for key, g := range f.open {
		delete(f.open, key)
		open = append(open, g)
	}
	return open
}
