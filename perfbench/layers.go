package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// perLayer lists every per-layer metric a traced run prints, in order.
// A workload that does not run a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"serve.client_start_us", "us"},
	{"serve.server_p50_us", "us"},
	{"serve.server_p99_us", "us"},
	{"serve.wire_us", "us"},
	{"serve.overloads", "count"},
	{"serve.fused_reqs", "count"},
	{"progress.sched_ticks_per_op", "count"},
	{"progress.sched_stalls", "count"},
	{"progress.sched_parks", "count"},
	{"progress.posts_per_op", "count"},
	{"runtime.allreduce_us", "us"},
	{"runtime.pingpong_us", "us"},
	{"core.start_us", "us"},
	{"core.callback_ns", "ns"},
	{"sim.events_per_op", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.run_s", "s"},
	{"sim.build_s", "s"},
	{"sim.queue_peak", "count"},
	{"sim.makespan_us", "us"},
	{"simmpi.self_s", "s"},
	{"netmodel.facilities", "count"},
	{"netmodel.busy_max_frac", "ratio"},
	{"nettransport.pingpong_us", "us"},
	{"nettransport.stream_mb_per_s", "MB/s"},
	{"nettransport.frames_per_op", "count"},
	{"nettransport.wire_bytes_per_payload_byte", "ratio"},
	{"nettransport.trouble", "count"},
	{"comm.pool_hit_ratio", "ratio"},
	{"faults.drops_per_op", "count"},
	{"faults.retries_per_drop", "count"},
	{"faults.timeouts", "count"},
	{"fec.parity_per_segment", "ratio"},
	{"fec.repair_ratio", "ratio"},
	{"fec.groups_lost_ratio", "ratio"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.allocs_per_event", "count"},
	{"go.allocs_per_op", "count"},
	{"go.heap_peak_mb", "MB"},
	{"go.cpu_util", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"run.fail_ratio", "ratio"},
	{"run.peak_rss_mb", "MB"},
}

// fillLayers returns the per-layer metrics in perLayer order, with a
// zero record for every layer the workload did not measure. A metric
// outside perLayer is a bug.
func fillLayers(have []metric) []metric {
	byName := make(map[string]metric, len(have))
	for _, m := range have {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, l := range perLayer {
		m, ok := byName[l.name]
		if !ok {
			m = one(l.name, l.unit, 0, 0)
		} else if m.Unit != l.unit {
			panic(fmt.Sprintf("perfbench: %s reported in %s, listed in %s", l.name, m.Unit, l.unit))
		}
		delete(byName, l.name)
		out = append(out, m)
	}
	for name := range byName {
		panic("perfbench: per-layer metric " + name + " is not listed")
	}
	return out
}

// overhead compares the traced phase's median op time with the
// untraced phase's: what recording the spans cost.
func overhead(untraced, traced opStats) metric {
	a, b := median(untraced.latMS), median(traced.latMS)
	return one("trace.overhead_frac", "ratio", ratio(b-a, a), len(traced.latMS))
}

// combine sums the op accounting of a run's phases.
func combine(phases ...opStats) result {
	r := result{correct: true}
	for _, s := range phases {
		r.attempted += s.attempted
		r.failed += s.failed
	}
	return r
}

// runFigures are the traced run's copies of the end-to-end figures kept
// off the last line: the fail ratio over both phases, and the peak RSS
// as it stood after the untraced phase (rssMB).
func runFigures(r result, rssMB float64) []metric {
	return []metric{
		one("run.fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted),
		one("run.peak_rss_mb", "MB", rssMB, 1),
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// writeTrace writes the traced phase's spans to a file and prints each
// span name's count, median wall time and total self time to standard
// error.
func writeTrace(cfg config, spans []span, st map[string]*layerTime) {
	p := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.tsv.gz", cfg.workload, cfg.seed))
	if err := writeSpans(p, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s\n", len(spans), p)
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-22s %10s %14s %14s\n", "span", "count", "median_us", "self_total_ms")
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(os.Stderr, "%-22s %10d %14.2f %14.2f\n", n, lt.count, median(lt.durations)/1e3, float64(lt.selfNS)/1e6)
	}
}
