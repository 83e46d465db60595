package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Times are nanoseconds since the tracer's epoch; parent is
// the id of the enclosing span (0 for an op's root); op groups the spans
// of one operation.
type span struct {
	name       string
	id, parent int64
	op         int64
	start, end int64
}

// tracer keeps every span in memory until the run ends. Each goroutine
// that records spans takes its own spanBuf, so recording takes no lock.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new per-goroutine span buffer; a nil tracer returns a
// nil buffer, on which every method is a no-op (the untraced run).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

type spanBuf struct {
	t     *tracer
	spans []span
}

// begin opens a span and returns its handle (-1 on a nil buffer).
func (b *spanBuf) begin(name string, op, parent int64) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, id: b.t.next.Add(1), parent: parent, op: op,
		start: int64(time.Since(b.t.epoch))})
	return len(b.spans) - 1
}

// end closes the span behind handle h.
func (b *spanBuf) end(h int) {
	if b == nil || h < 0 {
		return
	}
	b.spans[h].end = int64(time.Since(b.t.epoch))
}

// id is the span id behind handle h, for use as a child's parent.
func (b *spanBuf) id(h int) int64 {
	if b == nil || h < 0 {
		return 0
	}
	return b.spans[h].id
}

// dur is the duration of the closed span behind handle h.
func (b *spanBuf) dur(h int) time.Duration {
	if b == nil || h < 0 {
		return 0
	}
	return time.Duration(b.spans[h].end - b.spans[h].start)
}

// all returns every recorded span, ordered by start time.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// layerTime is one span name's totals over a run.
type layerTime struct {
	count     int
	totalNS   int64
	selfNS    int64
	durations []float64 // per-span wall time, ns
}

// selfTimes sums, per span name, wall time and self time: a span's
// duration minus the part of its interval that its children cover.
// Children may overlap one another (ranks of one op run concurrently);
// the covered part is the union of their intervals, clipped to the
// parent's.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.totalNS += d
		lt.selfNS += d - covered(s, children[s.id])
		lt.durations = append(lt.durations, float64(d))
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}

// writeSpans writes the spans as gzipped tab-separated lines:
// op, id, parent, name, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "op\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
