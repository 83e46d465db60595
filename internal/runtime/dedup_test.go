package runtime

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
)

// dedupPayload is message i's body: its index, so a misdelivery shows.
func dedupPayload(i int) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 16), uint64(i))
}

// Receive dedup is exact and bounded: over 10k drop- and dup-faulted
// messages on one link, no duplicate surfaces, and the dedup state never
// holds more than the link's in-flight reorder span. Once the link
// drains it holds nothing, and a late duplicate is suppressed.
func TestLiveDedupBoundedUnderDropDup(t *testing.T) {
	const n, window = 10_000, 100
	plan := faults.MustParsePlan("seed=7; link 0->1: drop=0.05, dup=0.1")
	w := NewWorld(2, WithFaults(plan, faults.DefaultRecovery()), WithRunTimeout(60*time.Second))
	recv := w.Rank(1)
	maxSpan := 0
	w.Run(func(c *Comm) {
		ack := comm.MakeTag(comm.KindP2P, 1, 0)
		for base := 0; base < n; base += window {
			switch c.Rank() {
			case 0:
				for i := base; i < base+window; i++ {
					c.Send(1, ptag(i), comm.Bytes(dedupPayload(i)))
				}
				c.Recv(1, ack)
			case 1:
				for i := base; i < base+window; i++ {
					st := c.Recv(0, ptag(i))
					if st.Err != nil || !bytes.Equal(st.Msg.Data, dedupPayload(i)) {
						t.Errorf("message %d: err=%v data=%x", i, st.Err, st.Msg.Data)
					}
					if s := c.eng.DedupSpan(); s > maxSpan {
						maxSpan = s
					}
				}
				c.Send(0, ack, comm.Msg{})
			}
		}
	})
	// Trailing duplicates fly up to RTO/2 behind their originals.
	time.Sleep(20 * time.Millisecond)
	if maxSpan > window {
		t.Errorf("dedup state held %d xids beyond the watermark, want at most the %d in flight", maxSpan, window)
	}
	if s := recv.eng.DedupSpan(); s != 0 {
		t.Errorf("drained link still holds %d xids beyond the watermark", s)
	}
	st := w.FaultStats()
	if st.Drops == 0 || st.Dups == 0 || st.Suppressed == 0 {
		t.Fatalf("plan exercised too little: %+v", st)
	}
	late := &progress.Env{Src: 0, Tag: ptag(0), Msg: comm.Bytes(comm.GetBuf(16)), Xid: 1}
	recv.deliver(late)
	if _, _, unexpected := recv.eng.Snapshot(); len(unexpected) != 0 {
		t.Fatalf("%d duplicate copies surfaced at the receiver", len(unexpected))
	}
	if got := w.FaultStats().Suppressed; got != st.Suppressed+1 {
		t.Fatalf("late duplicate not suppressed: suppressed %d -> %d", st.Suppressed, got)
	}
}
