package fec

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// manualClock collects the framer's idle-flush timers for the test to
// fire.
type manualClock struct{ timers []func() }

func (c *manualClock) after(_ time.Duration, fn func()) { c.timers = append(c.timers, fn) }

func newTestFramer(k int, stats *Counters, clk *manualClock, sealed *[]*Group[[]byte]) *Framer[[]byte] {
	return NewFramer(Config{K: k, M: 1}, stats, Hooks[[]byte]{
		FlushAfter: time.Millisecond,
		After:      clk.after,
		Shard:      func(b []byte) []byte { return b },
		Seal:       func(g *Group[[]byte]) { *sealed = append(*sealed, g) },
	})
}

// The framer seals a link's group at K members or at its idle flush,
// numbers groups densely per link and in open order across links, and
// counts the parity it encodes.
func TestFramerSealsAtKOrFlush(t *testing.T) {
	var stats Counters
	clk := &manualClock{}
	var sealed []*Group[[]byte]
	f := newTestFramer(3, &stats, clk, &sealed)
	for i := 0; i < 3; i++ {
		f.Add(0, 1, []byte{byte(i)})
	}
	f.Add(0, 2, []byte{9})
	f.Add(0, 1, []byte{7})
	if len(sealed) != 1 || len(sealed[0].Members) != 3 {
		t.Fatalf("want one full group sealed, got %d", len(sealed))
	}
	for _, fire := range clk.timers {
		fire()
	}
	if len(sealed) != 3 {
		t.Fatalf("idle flush sealed %d groups, want 3 in all", len(sealed))
	}
	type id struct{ dst, id, serial, members int }
	var got []id
	for _, g := range sealed {
		got = append(got, id{g.Dst, int(g.ID), int(g.Serial), len(g.Members)})
		if len(g.Parity) != 1 || g.Params != (Params{K: len(g.Members), M: 1}) {
			t.Fatalf("group %d/%d sealed with params %+v", g.Dst, g.ID, g.Params)
		}
	}
	if want := []id{{1, 1, 1, 3}, {2, 1, 2, 1}, {1, 2, 3, 1}}; !slices.Equal(got, want) {
		t.Fatalf("sealed groups %v, want %v", got, want)
	}
	if s := stats.Stats(); s.ParityEncoded != 3 {
		t.Fatalf("stats %+v, want 3 parity shards", s)
	}
	f.Add(0, 1, []byte{1})
	if open := f.Shutdown(); len(open) != 1 || f.Add(0, 1, []byte{2}) {
		t.Fatal("shutdown must hand back the open group and refuse new members")
	}
	for _, fire := range clk.timers {
		fire()
	}
	if len(sealed) != 3 {
		t.Fatal("a flush after shutdown sealed a group")
	}
}

// Repair rebuilds erasures within the surviving parity and counts them,
// and counts a group lost when the erasures outrun the parity.
func TestCountersRepair(t *testing.T) {
	var stats Counters
	p := Params{K: 3, M: 2}
	data := [][]byte{[]byte("alpha"), []byte("be"), []byte("gamma!")}
	parity := EncodeParity(p, data)
	sizes := []int{5, 2, 6}
	got := [][]byte{data[0], nil, nil}
	if !stats.Repair(p, got, parity, sizes) || !bytes.Equal(got[1], data[1]) || !bytes.Equal(got[2], data[2]) {
		t.Fatalf("within-parity repair failed: %q", got)
	}
	if !stats.Repair(p, [][]byte{data[0], data[1], data[2]}, parity, sizes) {
		t.Fatal("a group with nothing missing needs no repair")
	}
	if stats.Repair(p, [][]byte{nil, nil, data[2]}, [][]byte{parity[0], nil}, sizes) {
		t.Fatal("two erasures repaired from one parity shard")
	}
	if s := stats.Stats(); s.Reconstructed != 2 || s.GroupsLost != 1 {
		t.Fatalf("stats %+v, want 2 reconstructed and 1 group lost", s)
	}
}
