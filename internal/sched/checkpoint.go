package sched

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/machine"
)

// This file implements pick-boundary continuation capture and resumption —
// the paper's suspend/restart lifted from threads to whole runs. The
// scheduler loop calls checkAbort with the picked worker at every pick,
// while the machine is quiescent. A state captured there and later restored
// into an identically constructed machine continues byte-identically to the
// undisturbed run.

// Checkpoint configures continuation capture at scheduler pick boundaries.
// One Checkpoint serves one run; do not share across runs.
type Checkpoint struct {
	// EveryCycles, when positive, invokes Sink with a captured boundary
	// every time the run's total work advances by at least this many
	// virtual cycles. Work totals at pick boundaries are deterministic, so
	// the capture points — and the captured bytes — are too.
	EveryCycles int64
	// Sink receives each periodic capture; a non-nil error aborts the run
	// with it. Called on the scheduler goroutine with the machine quiescent.
	Sink func(*Boundary) error
	// YieldAtPick, when positive, aborts the run with a *YieldError at
	// exactly this pick (1-based over checkAbort calls). Deterministic —
	// round-trip tests use it to capture at chosen boundaries.
	YieldAtPick int64

	// yield is the asynchronous yield request (cluster work stealing): the
	// run aborts with a *YieldError at the next pick boundary. Which pick
	// that is depends on host timing — like cancellation, it affects where
	// the run stops, never the bytes the resumed run produces.
	yield atomic.Bool

	// last is the work total at the previous periodic capture.
	last int64
}

// RequestYield asks the run to suspend at its next pick boundary and abort
// with a *YieldError carrying the captured continuation. Safe to call from
// any goroutine.
func (c *Checkpoint) RequestYield() { c.yield.Store(true) }

// Boundary is a complete resumable continuation: machine, scheduler and
// fault-injector state at one pick boundary. Plain data throughout — the
// snapshot codec serializes it.
type Boundary struct {
	Mach  *machine.State
	Sched *SchedState
	Fault *fault.State
}

// ReqState is one victim's pending steal request; Thief < 0 means none.
type ReqState struct {
	Thief    int
	PostedAt int64
}

// SchedState is the scheduler's serializable state at a pick boundary.
type SchedState struct {
	Status   []int
	WakeAt   []int64
	Reqs     []ReqState
	Spurious []bool
	Rng      uint64
	Picks    int64
	Steals   int64
	Attempts int64
	Rejects  int64
}

// YieldError reports a run that suspended at a pick boundary on request
// (Checkpoint.RequestYield or YieldAtPick). It carries the continuation.
type YieldError struct {
	Boundary *Boundary
}

func (e *YieldError) Error() string {
	return "sched: run yielded at a pick boundary (resumable)"
}

// checkpointTick runs the capture logic at the end of checkAbort.
func (s *scheduler) checkpointTick(cp *Checkpoint) error {
	if cp.yield.Load() || (cp.YieldAtPick > 0 && s.picks == cp.YieldAtPick) {
		cp.yield.Store(false)
		return &YieldError{Boundary: s.captureBoundary()}
	}
	if cp.EveryCycles > 0 && cp.Sink != nil {
		var work int64
		for _, w := range s.m.Workers {
			work += w.Cycles
		}
		if work-cp.last >= cp.EveryCycles {
			cp.last = work
			if err := cp.Sink(s.captureBoundary()); err != nil {
				return fmt.Errorf("sched: checkpoint sink: %w", err)
			}
		}
	}
	return nil
}

// captureBoundary exports the complete continuation at the current pick.
func (s *scheduler) captureBoundary() *Boundary {
	st := &SchedState{
		Status:   make([]int, len(s.status)),
		WakeAt:   slices.Clone(s.wakeAt),
		Reqs:     make([]ReqState, len(s.reqs)),
		Spurious: slices.Clone(s.spurious),
		Rng:      s.rng,
		// The boundary's own pick has not been processed yet — the resumed
		// run re-selects it and its checkAbort re-increments the clock — so
		// the completed-pick count excludes it.
		Picks:    s.picks - 1,
		Steals:   s.res.Steals,
		Attempts: s.res.Attempts,
		Rejects:  s.res.Rejects,
	}
	for i, v := range s.status {
		st.Status[i] = int(v)
	}
	for i, r := range s.reqs {
		if r == nil {
			st.Reqs[i] = ReqState{Thief: -1}
		} else {
			st.Reqs[i] = ReqState{Thief: r.thief, PostedAt: r.postedAt}
		}
	}
	return &Boundary{
		Mach:  s.m.ExportState(),
		Sched: st,
		Fault: s.cfg.Fault.ExportState(),
	}
}

// importState restores scheduler state captured by captureBoundary. The
// machine and fault-injector parts of the boundary are the caller's to
// restore (core.Resume does both before calling Resume here).
func (s *scheduler) importState(st *SchedState) error {
	n := len(s.m.Workers)
	if len(st.Status) != n || len(st.WakeAt) != n || len(st.Reqs) != n || len(st.Spurious) != n {
		return fmt.Errorf("sched: resume state sized for %d workers, machine has %d",
			len(st.Status), n)
	}
	for i, v := range st.Status {
		if v < int(running) || v > int(halted) {
			return fmt.Errorf("sched: resume state has invalid worker status %d", v)
		}
		s.status[i] = wStatus(v)
	}
	copy(s.wakeAt, st.WakeAt)
	copy(s.spurious, st.Spurious)
	for i, r := range st.Reqs {
		if r.Thief < 0 {
			s.reqs[i] = nil
		} else {
			s.reqs[i] = &stealReq{thief: r.Thief, postedAt: r.PostedAt}
		}
	}
	s.rng = st.Rng
	s.picks = st.Picks
	s.res.Steals = st.Steals
	s.res.Attempts = st.Attempts
	s.res.Rejects = st.Rejects
	return nil
}

// Resume continues a run from a state captured at a pick boundary. The
// machine must have been reconstructed exactly as the capturing run's was
// (same program, memory, cost model, worker count, options) and the
// boundary's machine state already imported; cfg must carry the same tuple
// (mode, policy, seed, quantum, budget) and, for byte-identical artifacts,
// an obs collector and output writer pre-seeded with the state captured
// alongside the boundary.
func Resume(m *machine.Machine, cfg Config, st *SchedState) (*Result, error) {
	s, err := newScheduler(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.importState(st); err != nil {
		return nil, err
	}
	return s.execute()
}
