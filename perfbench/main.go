// Command perfbench is the repository's benchmark: workloads that each
// drive one path of the system end to end, timed from outside by the
// benchmark's own calls into each layer's public functions. See
// README.md for the workloads, the metrics and how to read a traced run.
//
//	bash perfbench/run.sh --workload sim-flat --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). The lines before it are full result
// records (sample count, median, quartiles, seed, host fingerprint).
// The exit status is 1 when an output check fails, 2 on a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for stall dumps and span files
}

// phaseLen is how long one measured phase runs. A traced run has two
// phases (untraced, then traced) and gives each half of --seconds, so it
// takes about as long as an untraced run.
func (c config) phaseLen() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// metric is one result record.
type metric struct {
	Name   string  `json:"metric"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Pct    int     `json:"pct,omitempty"` // the percentile a tail metric reports
}

// result is what a workload hands back for printing. extra records are
// printed with the others but stay off the last line (see endToEnd).
type result struct {
	correct           bool
	attempted, failed int
	metrics, extra    []metric
}

// workloads are the ones BENCHMARK.json lists, plus tcp-stream. The
// benchmark contract admits only workloads on which no op fails, and
// tcp-stream stalls at random on a rendezvous defect of the program
// (README.md, "Defects"); it stays runnable by name to reproduce that
// stall, with every stalled op counted in failed.
var workloads = map[string]func(config) (result, error){
	"serve-allreduce": runServe,
	"sim-flat":        runSimFlat,
	"tcp-lossy":       runTCPLossy,
	"tcp-stream":      runTCPStream,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-allreduce, sim-flat, tcp-stream or tcp-lossy")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: serve salts, tcp payloads, the lossy plan's seed")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, traceFlag)
		flag.Usage()
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	cfg.out = filepath.Join(".bench_build", "perfbench") // run.sh starts us in the repository root
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	res, err := wl(cfg)
	var wrong *wrongError
	switch {
	case errors.As(err, &wrong):
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		res.correct = false
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	h := fingerprint(".")
	enc := json.NewEncoder(os.Stdout)
	final := map[string]any{}
	for _, m := range append(res.metrics, res.extra...) {
		enc.Encode(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "traced": cfg.trace, "record": m, "host": h})
	}
	for _, m := range res.metrics {
		final[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if err := enc.Encode(map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": final}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the result:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// endToEnd derives the end-to-end metrics of one untraced phase.
// opBytes is the payload one op carries.
func endToEnd(s opStats, opBytes float64) []metric {
	ops := ratio(float64(s.completed()), s.measured.Seconds())
	return []metric{
		dist("setup_s", "s", s.setupS),
		one("ops_per_s", "1/s", ops, s.completed()),
		one("mb_per_s", "MB/s", ops*opBytes/1e6, s.completed()),
		dist("p50_ms", "ms", s.latMS),
	}
}

// endToEndExtra are end-to-end figures printed as records but kept off
// the last line, whose metrics must hold a steady spread from run to run
// on every workload:
//   - tail_ms moved by 16-47% between batches of ten tcp-stream runs of
//     the same code on a shared 2-CPU Xeon, as the host's load drifted;
//   - peak RSS grows by every world a stall leaves parked (~12 MB on
//     tcp-stream), so it follows the stall count, and on serve-allreduce
//     it moves with GC timing by a quarter of its value;
//   - the fail ratio reads 0 on clean runs and counts rare events.
func endToEndExtra(s opStats, r result) []metric {
	p, tail := tailPct(len(s.latMS)), median(s.latMS)
	if p > 50 {
		tail = percentile(s.latMS, p)
	}
	tm := one("tail_ms", "ms", tail, len(s.latMS))
	tm.Pct = p
	return []metric{
		tm,
		one("peak_rss_mb", "MB", peakRSSMB(), 1),
		one("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted),
	}
}

// one is a metric with a single value per run.
func one(name, unit string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Value: v, N: n, Median: v, Q1: v, Q3: v}
}

// dist is a metric reporting the median of samples.
func dist(name, unit string, xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Value: med, N: len(xs), Median: med, Q1: q1, Q3: q3}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// saveDumps writes the pending-op dumps of stalled worlds to files and
// names them on standard error.
func saveDumps(cfg config, phase string, dumps []string) {
	for i, d := range dumps {
		p := filepath.Join(cfg.out, fmt.Sprintf("stall-%s-seed%d-%s-%d.txt", cfg.workload, cfg.seed, phase, i))
		if err := os.WriteFile(p, []byte(d), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving stall dump:", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: stalled op, dump in %s\n", cfg.workload, p)
	}
}
