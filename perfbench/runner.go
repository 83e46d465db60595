package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// target is one built world that the op loop drives, one op at a time.
type target interface {
	// op runs operation i through to its checked result.
	op(i int) error
	// close tears the world down.
	close()
}

// stallError reports an op that missed its deadline, with whatever
// pending-operation dump the world could give.
type stallError struct{ dump string }

func (e *stallError) Error() string { return "op stalled past its deadline" }

// wrongError reports an output check that failed: the run is incorrect.
type wrongError struct{ msg string }

func (e *wrongError) Error() string { return "wrong result: " + e.msg }

func wrongf(format string, args ...any) error { return &wrongError{fmt.Sprintf(format, args...)} }

// opStats accounts one measured phase: every op attempted, how long each
// completed op took from call to checked result, and every (re)build of
// the world. Failed ops are counted, not timed: their time is whatever
// deadline they hit, so it would only carry the failure count into the
// throughput and latency figures a second time.
type opStats struct {
	attempted, failed int
	latMS             []float64     // per completed op
	measured          time.Duration // time spent in completed ops
	failedTime        time.Duration // time spent in failed ops
	setupS            []float64     // each build of the world, seconds
	dumps             []string      // pending-op dumps of stalled worlds
	rebuildErr        error
	rt                goDelta // what the Go runtime did while ops ran
}

func (s *opStats) completed() int { return s.attempted - s.failed }

// closeGrace bounds how long tearing down a stalled world may take; a
// world that does not close by then is abandoned.
const closeGrace = 2 * time.Second

// runOps builds a world builds times, timing each build and keeping the
// last, then runs ops on it until the time spent in ops (rebuilds
// excluded) reaches d. Each op gets deadline: an op that misses it, or
// fails for any other reason than a wrong result, counts as failed, and
// its world is torn down and rebuilt; the rebuild time is a set-up
// sample. A wrong result stops the loop with a
// *wrongError. first is the id of the first op, so phases of one run
// never reuse an op id.
func runOps(build func() (target, error), builds int, d, deadline time.Duration, first int) (s opStats, err error) {
	t, err := setUp(build, builds, &s)
	if err != nil {
		return s, err
	}
	g0 := readGo()
	defer func() { s.rt = diffGo(g0, readGo()) }()
	for i := first; s.measured+s.failedTime < d; i++ {
		t0 := time.Now()
		err := runWithin(t, i, deadline)
		took := time.Since(t0)
		s.attempted++
		if err == nil {
			s.measured += took
			s.latMS = append(s.latMS, ms(took))
			continue
		}
		s.failedTime += took
		var wrong *wrongError
		if errors.As(err, &wrong) {
			t.close()
			return s, err
		}
		s.failed++
		s.dumps = append(s.dumps, fmt.Sprintf("op %d: %v\n%s", i, err, dumpOf(err)))
		closeWithin(t.close, closeGrace)
		if t, err = timedBuild(build, &s); err != nil {
			s.rebuildErr = err
			return s, nil
		}
	}
	t.close()
	return s, nil
}

func dumpOf(err error) string {
	var st *stallError
	if errors.As(err, &st) {
		return st.dump
	}
	return ""
}

// setUp builds a world n times, timing each build into s.setupS, and
// returns the last. The earlier ones are closed, with a GC after each so
// that only one world is ever live.
func setUp[W interface{ close() }](build func() (W, error), n int, s *opStats) (W, error) {
	var w W
	for b := 0; b < max(n, 1); b++ {
		if b > 0 {
			w.close()
			runtime.GC()
		}
		var err error
		if w, err = timedBuild(build, s); err != nil {
			return w, fmt.Errorf("build: %w", err)
		}
	}
	return w, nil
}

func timedBuild[W any](build func() (W, error), s *opStats) (W, error) {
	t0 := time.Now()
	w, err := build()
	if err == nil {
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
	}
	return w, err
}

// runWithin runs op i and gives up waiting after twice its deadline (a
// target may detect the miss itself sooner, with a better dump); the
// op's goroutine is then abandoned with its world.
func runWithin(t target, i int, deadline time.Duration) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("op %d panicked: %v", i, p)
			}
		}()
		done <- t.op(i)
	}()
	timer := time.NewTimer(2 * deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return &stallError{dump: "(the op did not return; no dump)"}
	}
}

func closeWithin(closeFn func(), grace time.Duration) {
	done := make(chan struct{})
	go func() {
		closeFn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
