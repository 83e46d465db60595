package faults

import (
	"slices"
	"sort"
	"testing"
	"time"

	"adapt/internal/trace"
)

// fakeClock runs the detector's leases by hand, in due-time order.
type fakeClock struct {
	now     time.Duration
	pending []fakeTimer
}

type fakeTimer struct {
	at time.Duration
	fn func()
}

func (c *fakeClock) after(d time.Duration, fn func()) {
	c.pending = append(c.pending, fakeTimer{c.now + d, fn})
}

func (c *fakeClock) run() {
	sort.SliceStable(c.pending, func(i, j int) bool { return c.pending[i].at < c.pending[j].at })
	for len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		c.now = t.at
		t.fn()
	}
}

func TestDetectorCrashPointAndLeases(t *testing.T) {
	clk := &fakeClock{}
	tb := &trace.Buffer{}
	var confirmed []int
	rec := Recovery{SuspectAfter: 3 * time.Millisecond, ConfirmAfter: 7 * time.Millisecond}
	d := NewDetector(4, []Crash{{Rank: 2, AfterSends: 1}}, rec, LeaseHooks{
		After: clk.after, Now: func() time.Duration { return clk.now },
		Trace: func() *trace.Buffer { return tb }, Observer: -1,
		Confirm: func(r int) { confirmed = append(confirmed, r) },
	})
	if d.NoteSend(1) || d.NoteSend(2) {
		t.Fatal("rank died before its crash point")
	}
	if !d.NoteSend(2) || !d.Dead(2) || d.Confirmed(2) {
		t.Fatal("second send of rank 2 must kill it, unconfirmed")
	}
	if d.NoteSend(2) {
		t.Fatal("a dead rank cannot die twice")
	}
	d.Lease(2)
	d.Lease(2) // a second observation must not confirm twice
	clk.run()
	if got := d.Stats(); got != (DetectorStats{Suspects: 2, Confirms: 1, Repairs: 1}) {
		t.Fatalf("stats %+v", got)
	}
	if len(confirmed) != 1 || confirmed[0] != 2 || !d.ConfirmedMask(4)[2] || !d.DeadMask(4)[2] {
		t.Fatalf("confirm hook ran for %v", confirmed)
	}
	var kinds []trace.Kind
	for _, r := range tb.Records {
		if r.Rank != -1 || r.Peer != 2 {
			t.Fatalf("record %+v: want observer -1, peer 2", r)
		}
		kinds = append(kinds, r.Kind)
	}
	if want := []trace.Kind{trace.Suspect, trace.Suspect, trace.Confirm, trace.Repair}; !slices.Equal(kinds, want) {
		t.Fatalf("trace kinds %v, want %v", kinds, want)
	}
}

func TestDetectorNilAndShutdown(t *testing.T) {
	var nilDet *Detector
	if nilDet.NoteSend(0) || nilDet.Dead(0) || nilDet.Confirmed(0) ||
		nilDet.Stats() != (DetectorStats{}) || len(nilDet.DeadMask(3)) != 3 {
		t.Fatal("a nil detector must report a world where nothing dies")
	}
	clk := &fakeClock{}
	d := NewDetector(2, nil, DefaultRecovery(), LeaseHooks{
		After: clk.after, Now: func() time.Duration { return clk.now },
		Live:    func() bool { return false },
		Confirm: func(int) { t.Fatal("confirmed after shutdown") },
	})
	if !d.MarkDead(1) || d.MarkDead(1) {
		t.Fatal("MarkDead must report news exactly once")
	}
	d.Lease(1)
	clk.run()
	if d.Stats() != (DetectorStats{}) || d.Confirmed(1) {
		t.Fatalf("leases ran after shutdown: %+v", d.Stats())
	}
}
