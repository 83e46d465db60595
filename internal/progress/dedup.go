package progress

// Receive-side duplicate suppression (Backend.DedupXids): a dup verdict,
// a resent FEC group or a wire copy racing its own reconstruction can
// deliver a transmission twice, so the engine remembers the (src, xid)
// pairs it delivered. The live substrates number xids densely per link,
// which keeps that memory exact and bounded by the link's in-flight
// reorder span; a transmission lost for good must be retired, or it
// holds the watermark back.

// XidSet is one link's delivered-id set: a low watermark below which
// every id is in the set, plus the ids in it above the watermark. The
// zero value is empty.
type XidSet struct {
	low   uint64
	above map[uint64]struct{}
}

// Add inserts x and reports whether it was new.
func (s *XidSet) Add(x uint64) bool {
	if s.Has(x) {
		return false
	}
	if x != s.low+1 {
		if s.above == nil {
			s.above = make(map[uint64]struct{})
		}
		s.above[x] = struct{}{}
		return true
	}
	for s.low++; ; s.low++ {
		if _, ok := s.above[s.low+1]; !ok {
			return true
		}
		delete(s.above, s.low+1)
	}
}

// Has reports whether x is in the set.
func (s *XidSet) Has(x uint64) bool {
	_, ok := s.above[x]
	return x <= s.low || ok
}

// Span is the number of ids held above the watermark.
func (s *XidSet) Span() int { return len(s.above) }

// seenLocked returns src's delivered-xid set, growing the table on
// demand.
func (e *Engine) seenLocked(src int) *XidSet {
	if src >= len(e.seen) {
		e.seen = append(e.seen, make([]XidSet, src+1-len(e.seen))...)
	}
	return &e.seen[src]
}

// Delivered reports whether (src, xid) was delivered or retired. A
// substrate whose arrivals from one source are serialized may consult it
// before Arrive, to skip work on a duplicate.
func (e *Engine) Delivered(src int, xid uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return src < len(e.seen) && e.seen[src].Has(xid)
}

// Retire marks (src, xid), a transmission lost for good, as done, so the
// watermark moves past it and a late copy never surfaces.
func (e *Engine) Retire(src int, xid uint64) {
	e.mu.Lock()
	e.seenLocked(src).Add(xid)
	e.mu.Unlock()
}

// DedupSpan is the number of xids the dedup state holds above the
// per-source watermarks: the in-flight reorder span.
func (e *Engine) DedupSpan() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for i := range e.seen {
		n += e.seen[i].Span()
	}
	return n
}
