package progress

import (
	"testing"

	"adapt/internal/comm"
)

// TestMatchCycleSteadyStateAllocs pins the engine's queue capacity
// reuse: once warm, a match from the middle of a backlog in either queue
// and the completion callbacks fired — through DrainWhile (flat ranks) or
// the wait loops' drain — allocate nothing beyond the posted
// receives' own Reqs. Removing a match by copying the queue's tail into
// a fresh slice, popping callbacks by reslicing (which walks off the
// backing), or dropping the callback queue's backing on every drain
// costs extra allocations per cycle.
func TestMatchCycleSteadyStateAllocs(t *testing.T) {
	always := func() bool { return true }
	for _, d := range []struct {
		name  string
		drain func(*Engine) int
	}{
		{"DrainWhile", func(e *Engine) int { return e.DrainWhile(always) }},
		{"drain", func(e *Engine) int { return e.drain() }},
	} {
		t.Run(d.name, func(t *testing.T) { matchCycleAllocs(t, d.drain) })
	}
}

func matchCycleAllocs(t *testing.T, drain func(*Engine) int) {
	eng := eagerEngine(t, true)
	cb := func(comm.Status) {}
	const backlog = 4
	var matched Env             // arrives to a posted receive; not retained
	var parked [backlog + 1]Env // parked envelopes, one slot per live tag
	tag := func(i int) comm.Tag { return comm.Tag(i % 1000) }
	for i := 0; i < backlog; i++ {
		eng.OnComplete(eng.PostRecv(0, tag(i), comm.MemDefault), cb)
		parked[i] = Env{Src: 1, Tag: tag(i)}
		eng.Arrive(&parked[i])
	}
	i := 0
	cycle := func() {
		// Posted-queue match: the oldest of backlog+1 posted receives.
		eng.OnComplete(eng.PostRecv(0, tag(i+backlog), comm.MemDefault), cb)
		matched = Env{Src: 0, Tag: tag(i)}
		if eng.Arrive(&matched) != ArriveMatched {
			t.Fatal("arrival did not match the posted receive")
		}
		// Unexpected-queue match: the oldest of backlog+1 parked envelopes.
		env := &parked[(i+backlog)%len(parked)]
		*env = Env{Src: 1, Tag: tag(i + backlog)}
		if eng.Arrive(env) != ArriveParked {
			t.Fatal("arrival without a receive did not park")
		}
		eng.OnComplete(eng.PostRecv(1, tag(i), comm.MemDefault), cb)
		if n := drain(eng); n != 2 {
			t.Fatalf("drained %d callbacks, want 2", n)
		}
		i++
	}
	for w := 0; w < 64; w++ {
		cycle()
	}
	// Two receives posted per cycle: their Reqs are the only allocations.
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 2 {
		t.Fatalf("match cycle allocates %.1f times, want ≤ 2 (the two Reqs)", allocs)
	}
}
