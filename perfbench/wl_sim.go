package main

import (
	"fmt"
	"os"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// sim-flat: rounds of one broadcast and one allreduce over 102,400
// flat-mode ranks, the adaptbench -ranks 100k cell shape. One op is one
// round: a median over single collectives would flip between the
// broadcast's and the allreduce's time.
const (
	simRanks        = 102400
	simRanksPerNode = 32      // Cori node shape, as in adaptbench -ranks
	simMsgBytes     = 1 << 10 // payload-elided: event rate, not bytes
	simBuilds       = 7
	simDeadline     = 120 * time.Second // a round takes ~3 s; Run cannot be cut short
)

// The simulated makespans of one broadcast and one allreduce in this
// shape. They are outputs, not speeds: a change that only makes the code
// faster must leave them identical, and a run that sees another value
// fails its output check.
const (
	simBcastMakespan     = 18800 * time.Nanosecond
	simAllreduceMakespan = 44077 * time.Nanosecond
)

// simAcc accumulates what every round of a phase did.
type simAcc struct {
	runS      []float64 // wall time in Kernel.Run per round
	rounds    int
	events    uint64
	queuePeak int
	makespan  [2]time.Duration // last round's broadcast and allreduce
	busyMax   float64
	facil     int
	probe     *probeCounts // traced phase only
	startNS   int64        // traced phase: wall time inside core.Start*
	startN    int64
}

type simWorld struct {
	k     *sim.Kernel
	w     *simmpi.World
	tree  *trees.Tree
	ops   []*core.Op
	acc   *simAcc
	spans *spanBuf
}

func buildSim(acc *simAcc, spans *spanBuf) (*simWorld, error) {
	p := netmodel.Cori(simRanks / simRanksPerNode)
	p.Aggregate = true
	k := sim.New()
	return &simWorld{
		k: k, w: simmpi.NewWorld(k, p, noise.None), tree: trees.Binomial(simRanks, 0),
		ops: make([]*core.Op, 0, simRanks), acc: acc, spans: spans,
	}, nil
}

func (s *simWorld) close() { s.w, s.k, s.ops = nil, nil, nil }

func (s *simWorld) op(i int) error {
	b := s.spans
	root := b.begin("sim.round", int64(i), 0)
	defer b.end(root)
	var runWall time.Duration
	for kind, want := range []time.Duration{simBcastMakespan, simAllreduceMakespan} {
		opt := core.DefaultOptions()
		opt.Seq = (2*i + kind) % comm.SeqWrap
		s.ops = s.ops[:0]
		hs := b.begin("sim.spawn", int64(i), b.id(root))
		s.w.SpawnFlat(func(c *simmpi.Comm) { s.start(c, kind, opt) })
		b.end(hs)
		v0, d0 := s.k.Now(), s.k.Stats().Dispatched
		hr := b.begin("sim.run", int64(i), b.id(root))
		t0 := time.Now()
		_, err := s.k.Run()
		runWall += time.Since(t0)
		b.end(hr)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		hc := b.begin("check", int64(i), b.id(root))
		for r, op := range s.ops {
			if !op.Done() {
				b.end(hc)
				return wrongf("round %d collective %d: rank %d not done", i, kind, r)
			}
		}
		if len(s.ops) != simRanks {
			b.end(hc)
			return wrongf("round %d collective %d: %d of %d ranks started", i, kind, len(s.ops), simRanks)
		}
		span := s.k.Now() - v0
		b.end(hc)
		if span != want {
			return wrongf("round %d collective %d: simulated makespan %v, recorded %v", i, kind, span, want)
		}
		a := s.acc
		a.makespan[kind] = span
		a.events += s.k.Stats().Dispatched - d0
	}
	a := s.acc
	a.runS = append(a.runS, runWall.Seconds())
	a.rounds++
	a.queuePeak = max(a.queuePeak, s.k.Stats().QueuePeak)
	a.facil = s.w.Net.Facilities()
	if us := s.w.Net.Utilization(s.k.Now()); len(us) > 0 {
		a.busyMax = us[0].Fraction
	}
	return nil
}

// start is one rank's body: start its share of the collective.
func (s *simWorld) start(c *simmpi.Comm, kind int, opt core.Options) {
	var cc comm.Comm = c
	a := s.acc
	var t0 time.Time
	if a.probe != nil {
		cc = probeComm{c, a.probe}
		t0 = time.Now()
	}
	msg := comm.Sized(simMsgBytes)
	var op *core.Op
	if kind == 0 {
		op = core.StartBcast(cc, s.tree, msg, opt)
	} else {
		op = core.StartAllreduce(cc, s.tree, msg, opt)
	}
	if a.probe != nil {
		a.startNS += int64(time.Since(t0))
		a.startN++
	}
	s.ops = append(s.ops, op)
}

func runSimFlat(cfg config) (result, error) {
	// The simulation is deterministic; the seed changes nothing in it.
	phase := func(tr *tracer, acc *simAcc, d time.Duration) (opStats, error) {
		build := func() (target, error) { return buildSim(acc, tr.buf()) }
		return runOps(build, simBuilds, d, simDeadline, 0)
	}
	accA := &simAcc{}
	hw := watchHeap(cfg.trace)
	sa, err := phase(nil, accA, cfg.phaseLen())
	heapMB := hw.done()
	gd, rssA := sa.rt, peakRSSMB()
	res := combine(sa)
	if err != nil {
		return res, err
	}
	if !cfg.trace {
		res.metrics, res.extra = endToEnd(sa, 2*simMsgBytes), endToEndExtra(sa, res)
		return res, nil
	}

	tr := newTracer()
	accB := &simAcc{probe: &probeCounts{}}
	sb, err := phase(tr, accB, cfg.phaseLen())
	res = combine(sa, sb)
	if err != nil {
		return res, err
	}
	if accA.makespan != accB.makespan {
		return res, wrongf("simulated makespans differ: untraced %v, traced %v", accA.makespan, accB.makespan)
	}
	fmt.Fprintf(os.Stderr, "sim-flat: simulated makespans: bcast %d ns, allreduce %d ns\n",
		int64(accA.makespan[0]), int64(accA.makespan[1]))
	spans := tr.all()
	st := selfTimes(spans)
	pb := accB.probe
	var cbS float64
	if accB.rounds > 0 {
		cbS = float64(pb.cbSelfNS) / 1e9 / float64(accB.rounds)
	}
	m := []metric{
		dist("sim.run_s", "s", accA.runS),
		one("sim.events_per_op", "count", ratio(float64(accA.events), float64(accA.rounds)), accA.rounds),
		one("sim.events_per_s", "1/s", ratio(float64(accA.events), sum(accA.runS)), accA.rounds),
		dist("sim.build_s", "s", sa.setupS),
		one("sim.queue_peak", "count", float64(accA.queuePeak), 1),
		one("sim.makespan_us", "us", float64(accA.makespan[0]+accA.makespan[1])/1e3, accA.rounds),
		one("simmpi.self_s", "s", median(accB.runS)-cbS, accB.rounds),
		one("netmodel.facilities", "count", float64(accA.facil), 1),
		one("netmodel.busy_max_frac", "ratio", accA.busyMax, 1),
		one("core.start_us", "us", ratio(float64(accB.startNS)/1e3, float64(accB.startN)), int(accB.startN)),
		one("core.callback_ns", "ns", ratio(float64(pb.cbSelfNS), float64(pb.callbacks)), int(pb.callbacks)),
		one("progress.posts_per_op", "count", ratio(float64(pb.sends+pb.recvs), float64(accB.rounds)), accB.rounds),
		one("go.gc_cpu_frac", "ratio", gd.gcCPUFrac, 1),
		one("go.allocs_per_event", "count", ratio(float64(gd.allocs), float64(accA.events)), int(accA.events)),
		one("go.allocs_per_op", "count", ratio(float64(gd.allocs), float64(sa.attempted)), sa.attempted),
		one("go.heap_peak_mb", "MB", heapMB, 1),
		one("go.cpu_util", "ratio", gd.cpuUtil, 1),
		overhead(sa, sb),
	}
	res.metrics = fillLayers(append(m, runFigures(res, rssA)...))
	writeTrace(cfg, spans, st)
	return res, nil
}
