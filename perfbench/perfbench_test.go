package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPct(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 50}, {5, 50}, {19, 50}, {20, 50}, {25, 60}, {100, 90}, {800, 98}, {999, 98}, {1000, 99}, {50000, 99},
	} {
		if got := tailPct(tc.n); got != tc.want {
			t.Errorf("tailPct(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The reported percentile always leaves at least ten samples beyond it.
	for n := 20; n <= 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		v := percentile(xs, tailPct(n))
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, tailPct(n), beyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1.5, 2.5, 10, 4, 7, 3.25, 9}, 2.5, 4, 9},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// fakeTarget stalls on the ops listed in stall (it blocks until the test
// ends, like a world parked on a receive that never arrives), refuses
// the ops in refuse, and returns a wrong result on op wrongAt.
type fakeTarget struct {
	stall, refuse map[int]bool
	wrongAt       int
	closed        *atomic.Int64
	release       chan struct{}
}

func (f *fakeTarget) op(i int) error {
	switch {
	case f.stall[i]:
		<-f.release
		return nil
	case f.refuse[i]:
		return errors.New("refused")
	case i == f.wrongAt:
		return wrongf("op %d", i)
	}
	time.Sleep(time.Millisecond)
	return nil
}

func (f *fakeTarget) close() { f.closed.Add(1) }

func TestRunOpsFailureAccounting(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var builds, closed atomic.Int64
	build := func() (target, error) {
		builds.Add(1)
		return &fakeTarget{stall: map[int]bool{3: true, 7: true}, refuse: map[int]bool{5: true},
			wrongAt: -1, closed: &closed, release: release}, nil
	}
	const deadline = 20 * time.Millisecond
	s, err := runOps(build, 2, 150*time.Millisecond, deadline, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 3 {
		t.Fatalf("failed = %d, want 3 (two stalls, one refusal)", s.failed)
	}
	if s.completed() != len(s.latMS) || s.completed() != s.attempted-3 {
		t.Fatalf("attempted %d, latencies %d, completed %d", s.attempted, len(s.latMS), s.completed())
	}
	// Two set-up builds, then one rebuild per failed op.
	if got := len(s.setupS); got != 2+3 || builds.Load() != 5 {
		t.Fatalf("%d set-up samples from %d builds, want 5", got, builds.Load())
	}
	if len(s.dumps) != 3 {
		t.Fatalf("%d dumps, want 3", len(s.dumps))
	}
	// Every world was closed: the discarded set-up build, each failed
	// world, and the last one.
	if closed.Load() != builds.Load() {
		t.Fatalf("%d of %d worlds closed", closed.Load(), builds.Load())
	}
	// The two stalls hit the backstop at twice the deadline; their time
	// is failed time, not measured time.
	if s.failedTime < 4*deadline {
		t.Errorf("failed time %v, want at least %v", s.failedTime, 4*deadline)
	}
}

func TestRunOpsStopsOnWrongResult(t *testing.T) {
	var closed atomic.Int64
	build := func() (target, error) {
		return &fakeTarget{wrongAt: 2, closed: &closed, release: make(chan struct{})}, nil
	}
	s, err := runOps(build, 1, time.Second, time.Second, 0)
	var wrong *wrongError
	if !errors.As(err, &wrong) {
		t.Fatalf("err = %v, want a wrong-result error", err)
	}
	if s.attempted != 3 || s.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 3 and 0", s.attempted, s.failed)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []span{
		{name: "op", id: 1, start: 0, end: 100},
		{name: "a", id: 2, parent: 1, start: 10, end: 40},
		{name: "b", id: 3, parent: 1, start: 30, end: 60}, // overlaps a
		{name: "leaf", id: 4, parent: 2, start: 15, end: 20},
		{name: "b", id: 5, parent: 1, start: 90, end: 120}, // runs past its parent
		{name: "op", id: 6, start: 200, end: 210},          // no children
	}
	st := selfTimes(spans)
	for name, want := range map[string]int64{
		"op":   (100 - (60 - 10) - (100 - 90)) + 10,
		"a":    30 - 5,
		"b":    30 + 30,
		"leaf": 5,
	} {
		if got := st[name].selfNS; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	if st["op"].count != 2 || st["op"].totalNS != 110 {
		t.Errorf("op: count %d total %d, want 2 and 110", st["op"].count, st["op"].totalNS)
	}
}

// The metric names the benchmark prints are exactly those BENCHMARK.json
// declares, and every workload it lists can be run.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is listed but not implemented", w.Name)
		}
	}
	s := opStats{attempted: 2, latMS: []float64{1, 2}, measured: time.Second, setupS: []float64{0.1}}
	e2e := endToEnd(s, 8)
	if len(e2e) != len(spec.EndToEnd) {
		t.Fatalf("%d end-to-end metrics printed, %d declared", len(e2e), len(spec.EndToEnd))
	}
	for i, m := range e2e {
		if d := spec.EndToEnd[i]; d.Name != m.Name || d.Unit != m.Unit {
			t.Errorf("end-to-end %d: printed %s [%s], declared %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
	layers := fillLayers(nil)
	if len(layers) != len(spec.PerLayer) {
		t.Fatalf("%d per-layer metrics printed, %d declared", len(layers), len(spec.PerLayer))
	}
	for i, m := range layers {
		if d := spec.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit {
			t.Errorf("per-layer %d: printed %s [%s], declared %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}
