package conform

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/nettransport"
	"adapt/internal/perf"
)

// TCP-substrate conformance: every registered collective runs on real
// sockets (nettransport loopback) and must deliver the exact bytes the
// simulator's golden run produced. The simulator is the specification;
// the socket transport is an implementation under test. Gated behind
// -short because each cell stands up a live TCP mesh.

func netWorlds() []*hwloc.Topology {
	ws := []*hwloc.Topology{hwloc.New(2, 1, 2)} // 4 ranks, two "nodes"
	if full() {
		ws = append(ws, hwloc.New(7, 1, 1))
	}
	return ws
}

// TestConformanceGridTCP walks worlds × sizes × segment counts. One
// LocalWorld per cell; the cases run back-to-back on it with advancing
// Seq, which doubles as a live-reuse check (stale segments from case k
// must never FIFO-match case k+1's receives).
func TestConformanceGridTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP substrate grid skipped in -short")
	}
	before := perf.Read()
	for _, topo := range netWorlds() {
		n := topo.Size()
		p := netmodel.Cori(1).WithTopo(topo)
		for _, unit := range units() {
			size := unit * 8 * n
			for segName, segSize := range segGrid() {
				topo, segSize := topo, segSize
				t.Run(fmt.Sprintf("n%d/%dB/%s", n, size, segName), func(t *testing.T) {
					runNetGridCell(t, p, topo, size, segSize)
				})
			}
		}
		// One cell past the eager limit, unsegmented: every transfer is a
		// rendezvous, and reduce and allreduce have two or more rendezvous
		// senders into one rank.
		size := 3 * (nettransport.DefaultEagerLimit / (8 * n)) * 8 * n
		t.Run(fmt.Sprintf("n%d/%dB/1seg-rdv", n, size), func(t *testing.T) {
			runNetGridCell(t, p, topo, size, 0)
		})
	}
	// A clean loopback link must not move the fault-path counters: no
	// dial retries, no peer-down observations (scripts/bench.sh gates on
	// the same invariant).
	if d := perf.Read().NetTrouble() - before.NetTrouble(); d != 0 {
		t.Errorf("clean TCP grid moved net trouble counters by %d", d)
	}
}

func runNetGridCell(t *testing.T, p *netmodel.Platform, topo *hwloc.Topology, size, segSize int) {
	n := topo.Size()
	w, err := nettransport.NewLocalWorld(n)
	if err != nil {
		t.Fatalf("NewLocalWorld(%d): %v", n, err)
	}
	defer w.Close()
	w.WithRunTimeout(60 * time.Second)
	for i, cs := range Cases(topo, size) {
		opt := core.DefaultOptions()
		if segSize > 0 {
			opt.SegSize = segSize
		}
		opt.Seq = i + 1
		golden := RunCase(p, cs, opt, nil, faults.Recovery{})
		if golden.Err != nil {
			t.Fatalf("%s: golden run failed: %v", cs.Name, golden.Err)
		}
		out := make([][]byte, n)
		w.Run(func(c *nettransport.Comm) {
			res := cs.Run(c, cs.In(c.Rank()), opt)
			if res.Data != nil {
				out[c.Rank()] = append([]byte(nil), res.Data...)
			}
		})
		for r := 0; r < n; r++ {
			if !bytes.Equal(golden.Out[r], out[r]) {
				t.Errorf("%s: rank %d diverges from simulator golden (%d vs %d bytes, first delta at %d)",
					cs.Name, r, len(golden.Out[r]), len(out[r]), firstDelta(golden.Out[r], out[r]))
			}
		}
	}
}

// TestCrashGridTCP replays the fail-stop conformance cases on sockets: a
// mid-tree rank is killed (its process connections cut, no handshake)
// and the survivors must deliver the crash-free golden bytes — detection
// and repair may cost wall-clock time, never bytes. Each case needs a
// fresh mesh since the crash permanently kills one endpoint.
func TestCrashGridTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP crash grid skipped in -short")
	}
	const n = 4
	size := 16 * 8 * n
	p := netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 2))
	crash := faults.Crash{Rank: 2, AfterSends: 1} // mid-tree forwarder in Binomial(4,0)
	for _, cs := range CrashCases(n, size) {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			opt := core.DefaultOptions()
			opt.SegSize = 256
			opt.Seq = 1
			golden := RunCrashCase(p, cs, opt, nil, faults.Recovery{})
			if golden.KernelErr != nil {
				t.Fatalf("golden run failed: %v", golden.KernelErr)
			}
			w, err := nettransport.NewLocalWorld(n,
				nettransport.WithCrashes([]faults.Crash{crash}))
			if err != nil {
				t.Fatalf("NewLocalWorld: %v", err)
			}
			defer w.Close()
			w.WithRunTimeout(60 * time.Second)
			out := make([][]byte, n)
			masks := make([][]bool, n)
			errs := make([]error, n)
			w.Run(func(c *nettransport.Comm) {
				res := cs.Run(c, cs.In(c.Rank()), opt)
				errs[c.Rank()] = res.Err
				if res.Survivors != nil {
					masks[c.Rank()] = append([]bool(nil), res.Survivors...)
				}
				if res.Err == nil && res.Msg.Data != nil {
					out[c.Rank()] = append([]byte(nil), res.Msg.Data...)
				}
			})
			if !w.Crashed()[crash.Rank] {
				t.Fatalf("rank %d did not crash", crash.Rank)
			}
			for r := 0; r < n; r++ {
				if r == crash.Rank {
					continue
				}
				if errs[r] != nil {
					t.Fatalf("survivor %d errored: %v", r, errs[r])
				}
				if masks[r] == nil || masks[r][crash.Rank] {
					t.Errorf("survivor %d: mask %v counts the dead rank", r, masks[r])
				}
			}
			if isReduceCase(cs) {
				// The fold ranges over the survivor set, so the reference is
				// the mask-restricted lattice sum, same as the simmpi grid.
				want := latticeSum(masks[0], size)
				if !bytes.Equal(out[0], want) {
					t.Errorf("root fold diverges from survivor-set sum (first delta at %d)",
						firstDelta(out[0], want))
				}
				return
			}
			for r := 0; r < n; r++ {
				if r == crash.Rank {
					continue
				}
				if !bytes.Equal(golden.Out[r], out[r]) {
					t.Errorf("survivor %d: diverges from crash-free golden (first delta at %d)",
						r, firstDelta(golden.Out[r], out[r]))
				}
			}
		})
	}
}
