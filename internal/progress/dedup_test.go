package progress

import (
	"math/rand"
	"testing"
)

// XidSet is exact and bounded: ids delivered out of order within a
// reorder window, each with replays, are admitted exactly once, and the
// set never holds more than the window beyond its watermark.
func TestXidSetExactAndBounded(t *testing.T) {
	const n, window = 20_000, 32
	rng := rand.New(rand.NewSource(1))
	var s XidSet
	admitted := make([]int, n+1)
	for base := 1; base <= n; base += window {
		ids := make([]uint64, 0, 2*window)
		for x := base; x < base+window && x <= n; x++ {
			ids = append(ids, uint64(x), uint64(x)) // every id arrives twice
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, x := range ids {
			if s.Add(x) {
				admitted[x]++
			}
			if s.Span() > window {
				t.Fatalf("set holds %d ids beyond its watermark, window is %d", s.Span(), window)
			}
		}
	}
	for x := 1; x <= n; x++ {
		if admitted[x] != 1 || !s.Has(uint64(x)) {
			t.Fatalf("xid %d admitted %d times (has=%v)", x, admitted[x], s.Has(uint64(x)))
		}
	}
	if s.Span() != 0 || s.Has(n+1) {
		t.Fatalf("drained set: span %d, has(n+1)=%v", s.Span(), s.Has(n+1))
	}
}

// The engine keys dedup on (src, xid): the same xid from two sources is
// two messages, a replay from the same source is suppressed, and a
// retired xid suppresses its late copy.
func TestEngineDedupPerSource(t *testing.T) {
	eng := New(Backend{Prefix: "test", Wake: func() {}, DedupXids: true,
		OnMatch: func(*Req, *Env, bool) {}})
	for _, tc := range []struct {
		src  int
		xid  uint64
		want ArriveResult
	}{
		{1, 1, ArriveParked}, {2, 1, ArriveParked}, {1, 1, ArriveDuplicate},
		{2, 2, ArriveParked}, {2, 2, ArriveDuplicate},
	} {
		if got := eng.Arrive(&Env{Src: tc.src, Xid: tc.xid}); got != tc.want {
			t.Fatalf("arrive (%d, %d): %v, want %v", tc.src, tc.xid, got, tc.want)
		}
	}
	eng.Retire(1, 2)
	if !eng.Delivered(1, 2) || eng.Arrive(&Env{Src: 1, Xid: 2}) != ArriveDuplicate {
		t.Fatal("retired xid was not suppressed")
	}
	if eng.Delivered(3, 1) || eng.DedupSpan() != 0 {
		t.Fatalf("unexpected dedup state: span %d", eng.DedupSpan())
	}
}
