package simmpi_test

import (
	"bytes"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// The flat-mode contract: for noise-free workloads, the flat
// (goroutine-free) rank driver produces the same collective results and
// the same virtual-time makespan as the goroutine-per-rank proc mode.
// (Noise is excluded from the parity claim only because the two modes
// poll the per-rank noise stream at different points, drawing different
// pseudo-random freezes — each mode is still deterministic.)

type flatRun struct {
	makespan time.Duration
	results  [][]byte
	sizes    []int
}

// runProc executes one collective scenario in proc mode.
func runProc(t *testing.T, p *netmodel.Platform, body func(c *simmpi.Comm) comm.Msg) flatRun {
	t.Helper()
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	out := flatRun{results: make([][]byte, w.Size()), sizes: make([]int, w.Size())}
	w.Spawn(func(c *simmpi.Comm) {
		msg := body(c)
		out.results[c.Rank()] = append([]byte(nil), msg.Data...)
		out.sizes[c.Rank()] = msg.Size
	})
	out.makespan = k.MustRun()
	return out
}

// runFlat executes a chain of nonblocking phases in flat mode. Each
// rank starts phase 0 from its body and advances to the next phase from
// OnIdle when the current one completes; each phase sees the previous
// phase's result, and the last phase's result is recorded.
func runFlat(t *testing.T, p *netmodel.Platform, phases []func(c *simmpi.Comm, prev comm.Msg) *core.Op) flatRun {
	t.Helper()
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	out := flatRun{results: make([][]byte, w.Size()), sizes: make([]int, w.Size())}
	w.SpawnFlat(func(c *simmpi.Comm) {
		phase := 0
		op := phases[0](c, comm.Msg{})
		c.OnIdle(func() {
			for phase < len(phases) && op.Done() {
				// Done + idle: Wait returns without blocking.
				msg := op.Wait()
				if phase++; phase == len(phases) {
					out.results[c.Rank()] = append([]byte(nil), msg.Data...)
					out.sizes[c.Rank()] = msg.Size
					return
				}
				op = phases[phase](c, msg)
			}
		})
	})
	out.makespan = k.MustRun()
	return out
}

func payload(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((rank*131 + i*7) % 251)
	}
	return b
}

// TestFlatMatchesProcMode: same platform, same tree, same collectives —
// flat and proc mode must agree on every rank's result bytes and on the
// run's virtual makespan. Covers eager and rendezvous sizes, compute
// charges (reduce/allreduce fold costs exercise the busy-clock lag),
// and the fused allreduce's overlapping phases.
func TestFlatMatchesProcMode(t *testing.T) {
	p := netmodel.Cori(2) // 64 ranks, inter-node + QPI + shm lanes
	n := p.Topo.Size()
	tree := trees.Binomial(n, 0)
	opt := core.DefaultOptions()
	opt.SegSize = 4 << 10 // several segments even at the small sizes

	scenarios := []struct {
		name string
		size int
	}{
		{"eager", 4 << 10},       // under the 8KB eager limit
		{"rendezvous", 64 << 10}, // rendezvous protocol, 16 segments
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run("bcast/"+sc.name, func(t *testing.T) {
			root := payload(0, sc.size)
			proc := runProc(t, p, func(c *simmpi.Comm) comm.Msg {
				msg := comm.Msg{Size: sc.size, Space: comm.MemHost}
				if c.Rank() == 0 {
					msg.Data = append([]byte(nil), root...)
				}
				return core.Bcast(c, tree, msg, opt)
			})
			flat := runFlat(t, p, []func(c *simmpi.Comm, prev comm.Msg) *core.Op{
				func(c *simmpi.Comm, _ comm.Msg) *core.Op {
					msg := comm.Msg{Size: sc.size, Space: comm.MemHost}
					if c.Rank() == 0 {
						msg.Data = append([]byte(nil), root...)
					}
					return core.StartBcast(c, tree, msg, opt)
				},
			})
			compareRuns(t, proc, flat, n)
			for r := 0; r < n; r++ {
				if !bytes.Equal(flat.results[r], root) {
					t.Fatalf("rank %d: flat bcast delivered wrong bytes", r)
				}
			}
		})
		t.Run("reduce/"+sc.name, func(t *testing.T) {
			proc := runProc(t, p, func(c *simmpi.Comm) comm.Msg {
				return core.Reduce(c, tree, contrib(c.Rank(), sc.size), opt)
			})
			flat := runFlat(t, p, []func(c *simmpi.Comm, prev comm.Msg) *core.Op{
				func(c *simmpi.Comm, _ comm.Msg) *core.Op {
					return core.StartReduce(c, tree, contrib(c.Rank(), sc.size), opt)
				},
			})
			compareRuns(t, proc, flat, n)
		})
		t.Run("allreduce/"+sc.name, func(t *testing.T) {
			proc := runProc(t, p, func(c *simmpi.Comm) comm.Msg {
				return core.Allreduce(c, tree, contrib(c.Rank(), sc.size), opt)
			})
			flat := runFlat(t, p, []func(c *simmpi.Comm, prev comm.Msg) *core.Op{
				func(c *simmpi.Comm, _ comm.Msg) *core.Op {
					return core.StartAllreduce(c, tree, contrib(c.Rank(), sc.size), opt)
				},
			})
			compareRuns(t, proc, flat, n)
		})
	}

	// Phase chaining through OnIdle: reduce-then-bcast must match the
	// proc mode's sequential calls — the idle hook must not fire the
	// next phase early or late.
	t.Run("reduce-then-bcast", func(t *testing.T) {
		const size = 32 << 10
		proc := runProc(t, p, func(c *simmpi.Comm) comm.Msg {
			red := core.Reduce(c, tree, contrib(c.Rank(), size), opt)
			msg := comm.Msg{Size: size, Space: comm.MemHost}
			if c.Rank() == 0 {
				msg.Data = red.Data
			}
			return core.Bcast(c, tree, msg, opt)
		})
		flat := runFlat(t, p, []func(c *simmpi.Comm, prev comm.Msg) *core.Op{
			func(c *simmpi.Comm, _ comm.Msg) *core.Op {
				return core.StartReduce(c, tree, contrib(c.Rank(), size), opt)
			},
			func(c *simmpi.Comm, prev comm.Msg) *core.Op {
				msg := comm.Msg{Size: size, Space: comm.MemHost}
				if c.Rank() == 0 {
					msg.Data = prev.Data // the folded reduction result
				}
				return core.StartBcast(c, tree, msg, opt)
			},
		})
		compareRuns(t, proc, flat, n)
	})
}

// contrib builds rank r's reduction contribution.
func contrib(rank, size int) comm.Msg {
	return comm.Msg{Data: payload(rank, size), Size: size, Space: comm.MemHost}
}

func compareRuns(t *testing.T, proc, flat flatRun, n int) {
	t.Helper()
	if proc.makespan != flat.makespan {
		t.Fatalf("makespan diverged: proc %v, flat %v", proc.makespan, flat.makespan)
	}
	for r := 0; r < n; r++ {
		if proc.sizes[r] != flat.sizes[r] {
			t.Fatalf("rank %d: result size proc %d, flat %d", r, proc.sizes[r], flat.sizes[r])
		}
		if !bytes.Equal(proc.results[r], flat.results[r]) {
			t.Fatalf("rank %d: result bytes diverged between proc and flat mode", r)
		}
	}
}

// TestFlatAggregatePlatform: flat mode composed with aggregated
// facilities — the million-rank bench configuration — still delivers
// byte-correct collectives deterministically. (No makespan parity claim
// vs the exact facility model; aggregation is a fluid approximation.)
func TestFlatAggregatePlatform(t *testing.T) {
	p := netmodel.Cori(2)
	p.Aggregate = true
	n := p.Topo.Size()
	tree := trees.Binomial(n, 0)
	root := payload(0, 32<<10)
	run := func() flatRun {
		return runFlat(t, p, []func(c *simmpi.Comm, prev comm.Msg) *core.Op{
			func(c *simmpi.Comm, _ comm.Msg) *core.Op {
				msg := comm.Msg{Size: len(root), Space: comm.MemHost}
				if c.Rank() == 0 {
					msg.Data = append([]byte(nil), root...)
				}
				return core.StartBcast(c, tree, msg, core.DefaultOptions())
			},
		})
	}
	a, b := run(), run()
	if a.makespan != b.makespan {
		t.Fatalf("aggregate flat bcast nondeterministic: %v vs %v", a.makespan, b.makespan)
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(a.results[r], root) {
			t.Fatalf("rank %d: wrong bytes under aggregate facilities", r)
		}
	}
}

// TestFlatBlockingPanics: any blocking call from a flat rank must panic
// with a diagnostic instead of deadlocking the (goroutine-free) kernel.
func TestFlatBlockingPanics(t *testing.T) {
	k := sim.New()
	w := simmpi.NewWorld(k, netmodel.Cori(1), noise.None)
	var got interface{}
	w.SpawnFlat(func(c *simmpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() { got = recover() }()
		c.Recv(1, comm.Tag(0)) // blocking: must panic, not park
	})
	k.Run()
	if got == nil {
		t.Fatal("blocking Recv on a flat rank did not panic")
	}
}

// TestFlatRejectsFaultInjection: the crash/chaos machinery requires
// rank goroutines; arming faults and then spawning flat must refuse.
func TestFlatRejectsFaultInjection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnFlat with faults armed did not panic")
		}
	}()
	k := sim.New()
	w := simmpi.NewWorld(k, netmodel.Cori(1), noise.None)
	w.InstallFaults(faults.MustParsePlan("seed=1; all: drop=0.1"), faults.DefaultRecovery())
	w.SpawnFlat(func(c *simmpi.Comm) {})
}

// TestFlatSteadyStateAllocs bounds heap allocations per dispatched event
// once a flat world is warm: a 1,024-rank bcast and allreduce, respawned
// on the same world each round (the perfbench sim-flat shape, scaled
// down). What remains is per-rank collective setup and the one Req each
// send and receive needs; message transfers, stream pumps, the event
// queue and the matching engine's queues allocate nothing. Closure-based
// transfers cost about 4.2 allocations per event here.
func TestFlatSteadyStateAllocs(t *testing.T) {
	const ranks = 1024
	p := netmodel.Cori(ranks / 32)
	p.Aggregate = true
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	tree := trees.Binomial(ranks, 0)
	seq := 0
	round := func() {
		for kind := 0; kind < 2; kind++ {
			opt := core.DefaultOptions()
			opt.Seq = seq % comm.SeqWrap
			seq++
			w.SpawnFlat(func(c *simmpi.Comm) {
				if kind == 0 {
					core.StartBcast(c, tree, comm.Sized(1024), opt)
				} else {
					core.StartAllreduce(c, tree, comm.Sized(1024), opt)
				}
			})
			k.MustRun()
		}
	}
	round()
	round()
	d0 := k.Stats().Dispatched
	allocs := testing.AllocsPerRun(4, round)
	events := float64(k.Stats().Dispatched-d0) / 5 // AllocsPerRun adds a warm-up run
	perEvent := allocs / events
	t.Logf("%.2f allocs per event (%.0f allocs, %.0f events per round)", perEvent, allocs, events)
	if perEvent > 2.5 {
		t.Fatalf("steady-state flat round: %.2f allocs per event (%.0f allocs, %.0f events), want ≤ 2.5",
			perEvent, allocs, events)
	}
}
