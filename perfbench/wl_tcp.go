package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/nettransport"
	"adapt/internal/perf"
	"adapt/internal/trees"
)

// The TCP workloads run repeated allreduces on a 4-rank
// nettransport.LocalWorld over loopback, one collective in flight.
const (
	tcpRanks  = 4
	tcpBuilds = 101
	lossyK    = 4 // FEC group size on tcp-lossy
)

// tcpShape is what distinguishes tcp-stream from tcp-lossy.
type tcpShape struct {
	bytes, seg int
	deadline   time.Duration
	opts       func(seed int64) []nettransport.Option
}

// tcp-stream: 1 MiB allreduces in 8 segments of 128 KiB, which is past
// the 8 KiB eager limit: every segment takes the rendezvous path.
var tcpStream = tcpShape{
	bytes: 1 << 20, seg: 128 << 10,
	deadline: time.Second, // p99 is ~15-30 ms on a 2-CPU Xeon
	opts:     func(int64) []nettransport.Option { return nil },
}

// tcp-lossy: 256 KiB allreduces in 8 KiB eager segments, through a seeded
// plan that drops ~1% of eager frames, with adaptive FEC (groups of 4)
// and wall-clock group-resend timers as the repair path.
var tcpLossy = tcpShape{
	bytes: 256 << 10, seg: 8 << 10,
	deadline: 2 * time.Second, // p99 is RTO-driven, ~30 ms on a 2-CPU Xeon
	opts: func(seed int64) []nettransport.Option {
		plan := faults.MustParsePlan(fmt.Sprintf("seed=%d; all: drop=0.01", seed))
		rec := faults.Recovery{RTO: 20 * time.Millisecond, MaxAttempts: 10}.Normalized()
		return []nettransport.Option{nettransport.WithChaos(plan, rec), nettransport.WithFEC(fec.Config{K: lossyK})}
	},
}

// tcpAcc accumulates the repair counters of every world a phase built.
type tcpAcc struct {
	mu     sync.Mutex
	faults faults.Stats
	fec    fec.Stats
	probes []*probeCounts // traced phase: one per rank of every world
}

func (a *tcpAcc) add(f faults.Stats, s fec.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.faults.Drops += f.Drops
	a.faults.Retries += f.Retries
	a.faults.Timeouts += f.Timeouts
	a.fec.ParityEncoded += s.ParityEncoded
	a.fec.Reconstructed += s.Reconstructed
	a.fec.GroupsLost += s.GroupsLost
}

// totals returns the phase's repair counters and the sum of its probes.
func (a *tcpAcc) totals() (faults.Stats, fec.Stats, probeCounts) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t probeCounts
	for _, p := range a.probes {
		t.add(p)
	}
	return a.faults, a.fec, t
}

// tcpInputs are a run's generated payloads: each rank's contribution and
// the allreduce result every rank must return, byte for byte.
type tcpInputs struct {
	contrib [][]byte
	want    []byte
}

// makeTCPInputs fills each rank's vector with small integers drawn from
// seed. Sums of small integers are exact in float64 whatever the fold
// order, so every rank's result can be compared bytewise.
func makeTCPInputs(seed int64, nbytes int) tcpInputs {
	n := nbytes / 8
	in := tcpInputs{contrib: make([][]byte, tcpRanks)}
	sums := make([]float64, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for r := 0; r < tcpRanks; r++ {
		v := make([]float64, n)
		for j := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[j] = float64(int64(x%4096) - 2048)
			sums[j] += v[j]
		}
		in.contrib[r] = comm.EncodeFloat64s(v)
	}
	in.want = comm.EncodeFloat64s(sums)
	return in
}

type tcpWorld struct {
	w     *nettransport.LocalWorld
	shape tcpShape
	in    tcpInputs
	tree  *trees.Tree
	work  [][]byte // per-rank private copy of the contribution
	acc   *tcpAcc
	spans []*spanBuf // [0] for the op, [1+r] for rank r
	probe []*probeCounts
	wrong []error
}

func buildTCP(shape tcpShape, seed int64, in tcpInputs, acc *tcpAcc, tr *tracer) (*tcpWorld, error) {
	w, err := nettransport.NewLocalWorld(tcpRanks, shape.opts(seed)...)
	if err != nil {
		return nil, err
	}
	t := &tcpWorld{
		w: w.WithRunTimeout(shape.deadline), shape: shape, in: in, tree: trees.Binomial(tcpRanks, 0),
		acc: acc, wrong: make([]error, tcpRanks),
	}
	for r := 0; r < tcpRanks; r++ {
		t.work = append(t.work, make([]byte, shape.bytes))
	}
	for r := 0; r <= tcpRanks; r++ {
		t.spans = append(t.spans, tr.buf())
	}
	if tr != nil {
		for r := 0; r < tcpRanks; r++ {
			t.probe = append(t.probe, &probeCounts{})
		}
		acc.mu.Lock()
		acc.probes = append(acc.probes, t.probe...)
		acc.mu.Unlock()
	}
	return t, nil
}

func (t *tcpWorld) close() {
	t.acc.add(t.w.FaultStats(), t.w.FECStats())
	t.w.Close()
}

func (t *tcpWorld) op(i int) (err error) {
	b := t.spans[0]
	root := b.begin("tcp.allreduce", int64(i), 0)
	defer b.end(root)
	defer func() {
		if p := recover(); p != nil {
			msg := fmt.Sprint(p)
			if strings.Contains(msg, "still incomplete") {
				err = &stallError{dump: msg}
				return
			}
			err = fmt.Errorf("op %d: %s", i, msg)
		}
	}()
	opt := core.DefaultOptions()
	opt.SegSize = t.shape.seg
	opt.Seq = i % comm.SeqWrap
	rootID := b.id(root)
	t.w.Run(func(c *nettransport.Comm) {
		r := c.Rank()
		rb := t.spans[1+r]
		var cc comm.Comm = c
		if t.probe != nil {
			cc = probeComm{c, t.probe[r]}
		}
		copy(t.work[r], t.in.contrib[r])
		h := rb.begin("core.allreduce", int64(i), rootID)
		out := core.Allreduce(cc, t.tree, comm.Bytes(t.work[r]), opt)
		rb.end(h)
		hc := rb.begin("check", int64(i), rootID)
		if !bytes.Equal(out.Data, t.in.want) {
			t.wrong[r] = wrongf("op %d rank %d: allreduce result differs from the expected sum", i, r)
		}
		rb.end(hc)
	})
	for _, e := range t.wrong {
		if e != nil {
			return e
		}
	}
	return nil
}

func runTCPStream(cfg config) (result, error) { return runTCP(cfg, tcpStream) }
func runTCPLossy(cfg config) (result, error)  { return runTCP(cfg, tcpLossy) }

func runTCP(cfg config, shape tcpShape) (result, error) {
	in := makeTCPInputs(cfg.seed, shape.bytes)
	phase := func(tr *tracer, acc *tcpAcc, first int) (opStats, error) {
		build := func() (target, error) { return buildTCP(shape, cfg.seed, in, acc, tr) }
		return runOps(build, tcpBuilds, cfg.phaseLen(), shape.deadline, first)
	}
	accA := &tcpAcc{}
	p0 := perf.Read()
	hw := watchHeap(cfg.trace)
	sa, err := phase(nil, accA, 0)
	heapMB := hw.done()
	gd, p1, rssA := sa.rt, perf.Read(), peakRSSMB()
	saveDumps(cfg, "untraced", sa.dumps)
	res := combine(sa)
	if err != nil {
		return res, err
	}
	if sa.rebuildErr != nil {
		return res, fmt.Errorf("rebuild after a stall: %w", sa.rebuildErr)
	}
	if !cfg.trace {
		res.metrics, res.extra = endToEnd(sa, float64(shape.bytes)), endToEndExtra(sa, res)
		return res, nil
	}

	tr := newTracer()
	accB := &tcpAcc{}
	sb, err := phase(tr, accB, sa.attempted)
	saveDumps(cfg, "traced", sb.dumps)
	res = combine(sa, sb)
	if err != nil {
		return res, err
	}
	pingUS, streamMBs, err := tcpProbes(shape, cfg.seed, cfg.seconds/8)
	if err != nil {
		return res, fmt.Errorf("transport probes: %w", err)
	}
	spans := tr.all()
	st := selfTimes(spans)
	f, fs, pc := accB.totals()
	opsB := float64(sb.attempted)
	m := []metric{
		one("progress.posts_per_op", "count", ratio(float64(pc.sends+pc.recvs), opsB), sb.attempted),
		one("core.callback_ns", "ns", ratio(float64(pc.cbSelfNS), float64(pc.callbacks)), int(pc.callbacks)),
		dist("nettransport.pingpong_us", "us", pingUS),
		dist("nettransport.stream_mb_per_s", "MB/s", streamMBs),
		one("nettransport.frames_per_op", "count", ratio(float64(p1.NetFramesOut-p0.NetFramesOut), float64(sa.attempted)), sa.attempted),
		one("nettransport.wire_bytes_per_payload_byte", "ratio",
			ratio(float64(p1.NetBytesOut-p0.NetBytesOut), float64(sa.completed()*shape.bytes)), sa.completed()),
		one("nettransport.trouble", "count", float64(p1.NetTrouble()-p0.NetTrouble()), sa.attempted),
		one("comm.pool_hit_ratio", "ratio", ratio(float64(p1.BufHits-p0.BufHits), float64(p1.BufGets-p0.BufGets)), int(p1.BufGets-p0.BufGets)),
		one("faults.drops_per_op", "count", ratio(float64(f.Drops), opsB), sb.attempted),
		one("faults.retries_per_drop", "count", ratio(float64(f.Retries), float64(f.Drops)), int(f.Drops)),
		one("faults.timeouts", "count", float64(f.Timeouts), sb.attempted),
		one("fec.parity_per_segment", "ratio", ratio(float64(fs.ParityEncoded), float64(pc.sends)), int(pc.sends)),
		one("fec.repair_ratio", "ratio", ratio(float64(fs.Reconstructed), float64(f.Drops)), int(f.Drops)),
		one("fec.groups_lost_ratio", "ratio", ratio(float64(fs.GroupsLost)*lossyK, float64(pc.sends)), int(pc.sends)),
		one("go.gc_cpu_frac", "ratio", gd.gcCPUFrac, 1),
		one("go.allocs_per_op", "count", ratio(float64(gd.allocs), float64(sa.attempted)), sa.attempted),
		one("go.heap_peak_mb", "MB", heapMB, 1),
		one("go.cpu_util", "ratio", gd.cpuUtil, 1),
		overhead(sa, sb),
	}
	res.metrics = fillLayers(append(m, runFigures(res, rssA)...))
	writeTrace(cfg, spans, st)
	return res, nil
}

// tcpProbes measures the transport alone on a fresh world built like the
// workload's: 8-byte eager round trips between ranks 0 and 1, and a
// one-way stream of 128 KiB messages from rank 0 to rank 1 (MB/s per
// 8 MiB burst).
func tcpProbes(shape tcpShape, seed int64, d time.Duration) (pingUS, streamMBs []float64, err error) {
	w, err := nettransport.NewLocalWorld(tcpRanks, shape.opts(seed)...)
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	w.WithRunTimeout(d + 30*time.Second)
	w.Run(func(c *nettransport.Comm) { pingpong(c, d, &pingUS) })
	const msg, burst = 128 << 10, 64
	payload := make([]byte, msg)
	end := time.Now().Add(d)
	for k := 0; time.Now().Before(end); k++ {
		t0 := time.Now()
		w.Run(func(c *nettransport.Comm) {
			for j := 0; j < burst; j++ {
				tag := comm.MakeTag(comm.KindP2P, 1+k%1000, j)
				switch c.Rank() {
				case 0:
					c.Send(1, tag, comm.Bytes(payload))
				case 1:
					c.Recv(0, tag)
				}
			}
		})
		streamMBs = append(streamMBs, float64(msg*burst)/time.Since(t0).Seconds()/1e6)
	}
	return pingUS, streamMBs, nil
}
