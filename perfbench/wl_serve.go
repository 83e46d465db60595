package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	rt "adapt/internal/runtime"
	"adapt/internal/serve"
	"adapt/internal/trees"
)

// serve-allreduce: an in-process daemon, two sessions each keeping four
// allreduce requests in flight (world 4, 16 float64 per rank: the
// adaptbench -serve shape), every sum checked against its closed form.
const (
	serveWorld     = 4
	serveElems     = 16
	serveSessions  = 2
	servePipeline  = 4
	serveBuilds    = 101
	serveDeadline  = time.Second // p99 is ~3 ms on a 2-CPU Xeon
	serveWatchTick = 50 * time.Millisecond
)

// serveEnv is one daemon with its client sessions.
type serveEnv struct {
	srv   *serve.Server
	sess  []*serve.Session
	salt0 int64
}

func buildServe(salt0 int64) (*serveEnv, error) {
	// The default Config (runtime backend, fusing off) with a short drain
	// bound, so tearing down a stalled daemon cannot outlast the run.
	srv, err := serve.New(serve.Config{DrainTimeout: time.Second})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{srv: srv, salt0: salt0}
	for i := 0; i < serveSessions; i++ {
		s, err := serve.Dial(srv.Addr(), serve.SessionOpts{World: serveWorld, Group: "bench", ProxyRank: -1})
		if err != nil {
			e.close()
			return nil, err
		}
		e.sess = append(e.sess, s)
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, s := range e.sess {
		s.Close()
	}
	e.srv.Close()
}

// serveContrib is the world×elems input whose element sums have the
// closed form serveWant. The values are small integers, so any fold
// order gives the same float64 bits.
func serveContrib(salt int64) []float64 {
	v := make([]float64, serveWorld*serveElems)
	for r := 0; r < serveWorld; r++ {
		for e := 0; e < serveElems; e++ {
			v[r*serveElems+e] = float64(int64((r+1)*(e+3)) + salt)
		}
	}
	return v
}

func serveWant(e int, salt int64) float64 {
	var s float64
	for r := 0; r < serveWorld; r++ {
		s += float64(int64((r+1)*(e+3)) + salt)
	}
	return s
}

// sessionRun is what one session's loop did.
type sessionRun struct {
	attempted, failed int
	latMS             []float64
	startUS           []float64 // time inside StartAllreduce
	err               error     // a wrong result
	broken            bool      // the session died: rebuild
}

// runFor drives every session until d has passed, then drains. A
// watchdog fails the env when any request has been in flight longer
// than serveDeadline: it closes the daemon, which fails the waiting
// calls, and the env must be rebuilt. stalledAt is when the stalled
// request was sent (zero if none stalled).
func (e *serveEnv) runFor(d time.Duration, tr *tracer, opBase *atomic.Int64) (runs []sessionRun, stalledAt time.Time, dump string) {
	stopAt := time.Now().Add(d)
	oldest := make([]atomic.Int64, len(e.sess)) // unix ns of the oldest in-flight call, 0 if none
	var stall atomic.Bool
	runs = make([]sessionRun, len(e.sess))
	var wg sync.WaitGroup
	for i, s := range e.sess {
		wg.Add(1)
		go func(i int, s *serve.Session) {
			defer wg.Done()
			runs[i] = e.session(s, stopAt, tr.buf(), opBase, &oldest[i], &stall)
		}(i, s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(serveWatchTick)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return runs, stalledAt, dump
		case now := <-tick.C:
			if stall.Load() {
				continue
			}
			for i := range oldest {
				if t := oldest[i].Load(); t != 0 && now.UnixNano()-t > int64(serveDeadline) {
					stall.Store(true)
					stalledAt = time.Unix(0, t)
					b, _ := json.MarshalIndent(e.srv.StatusReport(), "", "  ")
					dump = fmt.Sprintf("session %d: a request in flight for more than %v\n%s", i, serveDeadline, b)
					go e.srv.Close()
					break
				}
			}
		}
	}
}

type inflight struct {
	call *serve.Call
	salt int64
	t0   time.Time
	op   int64
	root int
}

func (e *serveEnv) session(s *serve.Session, stopAt time.Time, b *spanBuf, opBase *atomic.Int64,
	oldest *atomic.Int64, stall *atomic.Bool) sessionRun {
	var r sessionRun
	window := make([]inflight, 0, servePipeline)
	finish := func(f inflight) {
		hw := b.begin("serve.wait", f.op, b.id(f.root))
		out, _, err := f.call.Wait()
		b.end(hw)
		switch {
		case err != nil:
			r.failed++
			if !errors.Is(err, serve.ErrOverloaded) {
				r.broken = true
			}
		default:
			hc := b.begin("check", f.op, b.id(f.root))
			for el, v := range out {
				if want := serveWant(el, f.salt); v != want && r.err == nil {
					r.err = wrongf("salt %d element %d: got %v, want %v", f.salt, el, v, want)
				}
			}
			if len(out) != serveElems && r.err == nil {
				r.err = wrongf("salt %d: %d elements, want %d", f.salt, len(out), serveElems)
			}
			b.end(hc)
			r.latMS = append(r.latMS, ms(time.Since(f.t0)))
		}
		b.end(f.root)
	}
	pop := func() {
		finish(window[0])
		window = window[1:]
		if len(window) > 0 {
			oldest.Store(window[0].t0.UnixNano())
		} else {
			oldest.Store(0)
		}
	}
	for time.Now().Before(stopAt) && !stall.Load() && !r.broken && r.err == nil {
		if len(window) == servePipeline {
			pop()
			continue
		}
		op := opBase.Add(1)
		salt := e.salt0 + op
		vals := serveContrib(salt)
		f := inflight{salt: salt, op: op, t0: time.Now()}
		f.root = b.begin("serve.request", op, 0)
		hs := b.begin("serve.start", op, b.id(f.root))
		c, err := s.StartAllreduce(vals)
		b.end(hs)
		if b != nil {
			r.startUS = append(r.startUS, float64(b.dur(hs))/1e3)
		}
		r.attempted++
		if err != nil {
			r.failed++
			b.end(f.root)
			if !errors.Is(err, serve.ErrOverloaded) {
				r.broken = true
			}
			continue
		}
		f.call = c
		if len(window) == 0 {
			oldest.Store(f.t0.UnixNano())
		}
		window = append(window, f)
	}
	for len(window) > 0 {
		pop()
	}
	return r
}

// servePhase runs the serve loop for d, rebuilding the daemon after a
// stall or a dead session. Time from a stalled request's send to the
// teardown counts as failed time, not measured time.
func servePhase(cfg config, tr *tracer, d time.Duration, opBase *atomic.Int64) (s opStats, startUS []float64, err error) {
	salt0 := (cfg.seed % 1000) * 1_000_000
	build := func() (*serveEnv, error) { return buildServe(salt0) }
	env, err := setUp(build, serveBuilds, &s)
	if err != nil {
		return s, nil, err
	}
	g0 := readGo()
	defer func() { s.rt = diffGo(g0, readGo()) }()
	for s.measured+s.failedTime < d {
		t0 := time.Now()
		runs, stalledAt, dump := env.runFor(d-s.measured-s.failedTime, tr, opBase)
		lost := time.Duration(0)
		if !stalledAt.IsZero() {
			lost = time.Since(stalledAt)
		}
		s.measured += time.Since(t0) - lost
		s.failedTime += lost
		broken := !stalledAt.IsZero()
		for _, r := range runs {
			s.attempted += r.attempted
			s.failed += r.failed
			s.latMS = append(s.latMS, r.latMS...)
			startUS = append(startUS, r.startUS...)
			if r.err != nil {
				env.close()
				return s, startUS, r.err
			}
			broken = broken || r.broken
		}
		if !broken {
			break
		}
		if dump == "" {
			dump = "a session died"
		}
		s.dumps = append(s.dumps, dump)
		closeWithin(env.close, closeGrace)
		if env, err = timedBuild(build, &s); err != nil {
			s.rebuildErr = err
			return s, startUS, nil
		}
	}
	env.close()
	return s, startUS, nil
}

func runServe(cfg config) (result, error) {
	var opBase atomic.Int64
	hw := watchHeap(cfg.trace)
	sa, _, err := servePhase(cfg, nil, cfg.phaseLen(), &opBase)
	heapMB := hw.done()
	gd, rssA := sa.rt, peakRSSMB()
	saveDumps(cfg, "untraced", sa.dumps)
	res := combine(sa)
	if err != nil {
		return res, err
	}
	if sa.rebuildErr != nil {
		return res, fmt.Errorf("rebuild after a stall: %w", sa.rebuildErr)
	}
	if !cfg.trace {
		res.metrics, res.extra = endToEnd(sa, serveWorld*serveElems*8), endToEndExtra(sa, res)
		return res, nil
	}

	metrics.Enable(true)
	c0 := schedCounters()
	p0 := perf.Read()
	tr := newTracer()
	sb, startUS, err := servePhase(cfg, tr, cfg.phaseLen(), &opBase)
	p1 := perf.Read()
	c1 := schedCounters()
	lat := serveLatency()
	metrics.Enable(false)
	saveDumps(cfg, "traced", sb.dumps)
	res = combine(sa, sb)
	if err != nil {
		return res, err
	}
	ops := float64(sb.attempted)
	spans := tr.all()
	st := selfTimes(spans)
	clientP50 := median(sb.latMS) * 1e3
	serverP50 := float64(lat.P50) / 1e3
	m := []metric{
		dist("serve.client_start_us", "us", startUS),
		one("serve.server_p50_us", "us", serverP50, int(lat.Count)),
		one("serve.server_p99_us", "us", float64(lat.P99)/1e3, int(lat.Count)),
		one("serve.wire_us", "us", clientP50-serverP50, len(sb.latMS)),
		one("serve.overloads", "count", float64(p1.ServeOverloads-p0.ServeOverloads), sb.attempted),
		one("serve.fused_reqs", "count", float64(p1.ServeFusedReqs-p0.ServeFusedReqs), sb.attempted),
		one("progress.sched_ticks_per_op", "count", ratio(float64(c1.ticks-c0.ticks), ops), sb.attempted),
		one("progress.sched_stalls", "count", ratio(float64(c1.stalls-c0.stalls), ops), sb.attempted),
		one("progress.sched_parks", "count", ratio(float64(c1.parks-c0.parks), ops), sb.attempted),
		dist("runtime.allreduce_us", "us", runtimeAllreduceUS(cfg.seconds/8)),
		dist("runtime.pingpong_us", "us", runtimePingpongUS(cfg.seconds/8)),
		one("comm.pool_hit_ratio", "ratio", ratio(float64(p1.BufHits-p0.BufHits), float64(p1.BufGets-p0.BufGets)), int(p1.BufGets-p0.BufGets)),
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

// serveLatency is the daemon's allreduce request-latency histogram
// (admission to response). It records only while metrics are enabled,
// which is during the traced phase alone.
func serveLatency() metrics.QuantileSummary {
	for _, q := range metrics.Default().Summaries(true) {
		if q.Name == "adapt_serve_request_latency_ns" && q.Labels == `kind="allreduce"` {
			return q
		}
	}
	return metrics.QuantileSummary{}
}

type schedCount struct{ ticks, stalls, parks uint64 }

func schedCounters() schedCount {
	var c schedCount
	for _, v := range metrics.Default().CounterValues() {
		switch v.Name {
		case "adapt_progress_sched_ticks_total":
			c.ticks = v.Value
		case "adapt_progress_sched_stalls_total":
			c.stalls = v.Value
		case "adapt_progress_sched_parks_total":
			c.parks = v.Value
		}
	}
	return c
}

// runtimeAllreduceUS times the serve workload's allreduce called
// directly on a 4-rank live runtime world, with no daemon: the floor
// under the daemon's share. Rank 0 times each call.
func runtimeAllreduceUS(d time.Duration) []float64 {
	w := rt.NewWorld(serveWorld)
	tree := trees.Binomial(serveWorld, 0)
	var lat []float64
	var stop atomic.Bool
	time.AfterFunc(d, func() { stop.Store(true) })
	w.Run(func(c *rt.Comm) {
		vals := make([]float64, serveElems)
		for i := 0; ; i++ {
			// Every rank must agree on the last call: rank 0 decides and
			// broadcasts the verdict with the payload's first element.
			for e := range vals {
				vals[e] = float64(c.Rank() + e)
			}
			if c.Rank() == 0 && stop.Load() {
				vals[0] = -1e9
			}
			opt := core.DefaultOptions()
			opt.Seq = i % comm.SeqWrap
			t0 := time.Now()
			out := core.Allreduce(c, tree, comm.Bytes(comm.EncodeFloat64s(vals)), opt)
			if c.Rank() == 0 {
				lat = append(lat, float64(time.Since(t0))/1e3)
			}
			if comm.DecodeFloat64s(out.Data)[0] < 0 {
				return
			}
		}
	})
	return lat
}

// runtimePingpongUS times 8-byte eager round trips between ranks 0 and
// 1 of a live runtime world.
func runtimePingpongUS(d time.Duration) []float64 {
	w := rt.NewWorld(2)
	var lat []float64
	w.Run(func(c *rt.Comm) {
		pingpong(c, d, &lat)
	})
	return lat
}

// pingpong bounces an 8-byte message between ranks 0 and 1 until d has
// passed; rank 0 records each round trip in µs. The first payload byte
// carries the stop verdict to rank 1.
func pingpong(c comm.Comm, d time.Duration, lat *[]float64) {
	if c.Rank() > 1 {
		return
	}
	end := time.Now().Add(d)
	msg := make([]byte, 8)
	for i := 0; ; i++ {
		tag := comm.MakeTag(comm.KindP2P, 0, i%(1<<20))
		if c.Rank() == 0 {
			msg[0] = 0
			if !time.Now().Before(end) {
				msg[0] = 1
			}
			t0 := time.Now()
			c.Send(1, tag, comm.Bytes(msg))
			c.Recv(1, tag)
			*lat = append(*lat, float64(time.Since(t0))/1e3)
			if msg[0] == 1 {
				return
			}
			continue
		}
		st := c.Recv(0, tag)
		c.Send(0, tag, comm.Bytes(msg))
		if st.Msg.Data[0] == 1 {
			return
		}
	}
}
