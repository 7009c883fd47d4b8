// Package exportset implements the exported-set bookkeeping of Section 5.
//
// A worker's exported set holds frames that were detached from a logical
// stack (by suspend, or by restart when the current frame ends up below the
// restarted chain) and therefore may be finished out of LIFO order, possibly
// by another worker. The worker keeps its stack pointer above every frame in
// the set; the only operations ever performed on the set are inserting an
// element and reading or removing the topmost element, so a binary heap
// suffices — exactly the observation of Section 5.2.
//
// This file is the operational structure used by the machine. model.go holds
// the paper's formal transition system (Figure 13), which the property tests
// drive to check Lemmas 1-3 and Theorem 4.
package exportset

import "fmt"

// Entry describes one exported frame: FP is the frame base address and Low
// the lowest word the frame occupies (FP - FrameSize). Stacks grow toward
// lower addresses, so the topmost frame is the one with the smallest FP —
// and, because live frames occupy disjoint address intervals, the topmost
// frame also has the smallest Low, which bounds the arguments-region
// extension of Invariant 2.
type Entry struct {
	FP, Low int64
}

// Set is a worker's exported set: a binary min-heap on FP. The zero value
// is an empty set.
type Set struct {
	h    []Entry
	live map[int64]bool
}

// Len returns the number of exported frames.
func (s *Set) Len() int { return len(s.h) }

// Empty reports whether the set is empty.
func (s *Set) Empty() bool { return len(s.h) == 0 }

// Push inserts an exported frame. Pushing an FP already present is a
// runtime bug and panics.
func (s *Set) Push(e Entry) {
	if s.live == nil {
		s.live = make(map[int64]bool)
	}
	if s.live[e.FP] {
		panic("exportset: frame exported twice")
	}
	s.live[e.FP] = true
	s.h = append(s.h, e)
	i := len(s.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.h[p].FP <= s.h[i].FP {
			break
		}
		s.h[p], s.h[i] = s.h[i], s.h[p]
		i = p
	}
}

// Top returns the topmost exported frame (minimum FP). It panics on an
// empty set; callers check Empty or use TopFP with a sentinel.
func (s *Set) Top() Entry {
	if len(s.h) == 0 {
		panic("exportset: Top of empty set")
	}
	return s.h[0]
}

// TopFP returns the topmost exported FP, or sentinel when the set is empty.
// The machine passes the worker's stack bottom, which keeps the epilogue's
// two-comparison test exact (Section 5.2).
func (s *Set) TopFP(sentinel int64) int64 {
	if len(s.h) == 0 {
		return sentinel
	}
	return s.h[0].FP
}

// MinLow returns the lowest word occupied by any exported frame, or
// sentinel when the set is empty. Because frames are disjoint intervals,
// this is the topmost frame's Low.
func (s *Set) MinLow(sentinel int64) int64 {
	if len(s.h) == 0 {
		return sentinel
	}
	return s.h[0].Low
}

// PopTop removes and returns the topmost exported frame.
func (s *Set) PopTop() Entry {
	e := s.Top()
	delete(s.live, e.FP)
	n := len(s.h) - 1
	s.h[0] = s.h[n]
	s.h = s.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.h[l].FP < s.h[min].FP {
			min = l
		}
		if r < n && s.h[r].FP < s.h[min].FP {
			min = r
		}
		if min == i {
			break
		}
		s.h[i], s.h[min] = s.h[min], s.h[i]
		i = min
	}
	return e
}

// Contains reports whether a frame with base fp is exported.
func (s *Set) Contains(fp int64) bool { return s.live[fp] }

// Entries returns the exported frames in unspecified order (for the
// invariant checker and tests).
func (s *Set) Entries() []Entry {
	out := make([]Entry, 0, len(s.h))
	out = append(out, s.h...)
	return out
}

// CheckShape verifies the set's internal structure: the array satisfies
// the binary-heap property on FP (so Top really is the topmost frame —
// the max-E ordering of Section 5.2), every entry spans a non-empty
// interval below its FP, and the membership index mirrors the heap
// exactly. It returns nil on a well-formed set. The invariant auditor
// calls this; the operational code never needs to.
func (s *Set) CheckShape() error {
	for i := 1; i < len(s.h); i++ {
		if p := (i - 1) / 2; s.h[p].FP > s.h[i].FP {
			return fmt.Errorf("exportset: heap property violated at index %d: parent FP %d > child FP %d",
				i, s.h[p].FP, s.h[i].FP)
		}
	}
	for i, e := range s.h {
		if e.Low >= e.FP {
			return fmt.Errorf("exportset: entry %d spans empty interval [%d,%d)", i, e.Low, e.FP)
		}
		if !s.live[e.FP] {
			return fmt.Errorf("exportset: heap entry FP %d missing from the membership index", e.FP)
		}
	}
	liveCount := 0
	for fp, ok := range s.live {
		if ok {
			liveCount++
			_ = fp
		}
	}
	if liveCount != len(s.h) {
		return fmt.Errorf("exportset: membership index has %d live frames, heap has %d", liveCount, len(s.h))
	}
	return nil
}
