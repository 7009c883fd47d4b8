package machine

import (
	"errors"

	"repro/internal/isa"
	"repro/internal/postproc"
)

// AtFrameTransition reports whether the worker is stopped at one of the
// calling standard's frame-transition instructions. The Section 3.2
// invariants are stated between frame pushes and pops; inside a prologue
// or epilogue tail the state is momentarily between frames — PC is in the
// callee while FP still addresses the caller's frame, or SP has crossed
// the finishing frame before the parent FP is reloaded. The machine's own
// checkInvariants call sites (suspend, restart, start-thread, shrink) run
// inside runtime operations and never rest here, but a quantum budget can
// expire at any instruction, so an auditor sampling at scheduler pick
// boundaries must skip a worker parked on one of these instructions and
// catch it at the next boundary instead.
func (w *Worker) AtFrameTransition() bool {
	pc := w.PC
	if pc < 0 || pc >= int64(len(w.M.Prog.Code)) {
		return false // magic pc: empty logical stack, nothing frame-shaped
	}
	in := w.M.Prog.Code[pc]
	switch in.Op {
	case isa.Store:
		// Prologue "store [sp-1], lr" / "store [sp-2], fp": PC is already
		// in the callee but FP still addresses the caller's frame.
		return in.Ra == isa.SP &&
			((in.Imm == -1 && in.Rb == isa.LR) || (in.Imm == -2 && in.Rb == isa.FP))
	case isa.Mov:
		// Prologue "mov fp, sp": same window as above.
		return in.Rd == isa.FP && in.Ra == isa.SP
	case isa.AddI:
		// Prologue "addi sp, fp, -FrameSize": FP addresses the new frame
		// but SP has not allocated it yet (SP == FP).
		return in.Rd == isa.SP && in.Ra == isa.FP && in.Imm < 0
	case isa.Load:
		// Epilogue parent-FP reload: on the free path SP has already
		// crossed the finished frame (mov sp, fp ran); on the retain path
		// the frame's return-address slot is already zeroed while FP still
		// addresses it.
		return in.Rd == isa.FP && in.Imm == -2 && (in.Ra == isa.SP || in.Ra == isa.FP)
	case isa.JmpReg:
		// Epilogue "jmpreg lr": FP (and on the free path SP) already
		// address the caller's frame while PC is still in the finished
		// callee, so a stack walk keyed on descFor(PC) would pair the
		// caller's FP with the callee's frame size. jmpreg lr is emitted
		// only as an epilogue's final return jump.
		return in.Ra == isa.LR
	}
	return false
}

// AuditInvariants runs the full Section 3.2 invariant check against the
// worker's current state regardless of Options.CheckInvariants, returning
// the violation as an error instead of faulting the simulation. It is the
// entry point for the live auditor (internal/invariant): the auditor runs
// at scheduler pick boundaries, where the machine is quiescent, so
// temporarily forcing the check flag is safe. Workers parked on a
// frame-transition instruction are skipped (see AtFrameTransition).
func (w *Worker) AuditInvariants(where string) (err error) {
	if w.AtFrameTransition() {
		return nil
	}
	saved := w.M.Opts.CheckInvariants
	w.M.Opts.CheckInvariants = true
	defer func() {
		w.M.Opts.CheckInvariants = saved
		if r := recover(); r != nil {
			if re, ok := r.(*runtimeError); ok {
				err = errors.New(re.Error())
				return
			}
			panic(r)
		}
	}()
	w.checkInvariants(where)
	return nil
}

// checkInvariants verifies the two invariants of Section 3.2 against the
// live machine state when Options.CheckInvariants is set:
//
// Invariant 1: FP points to the logical stack top (true by construction)
// and SP to the physical stack top — SP lies at or below the lowest word of
// every live frame in the worker's current stack segment. (Frames retained
// in non-current segments are never threatened by SP and are checked only
// for bookkeeping consistency.)
//
// Invariant 2: when the currently executing frame is not the physically top
// frame of the current segment, the segment is extended — [SP,
// SP+MaxArgsOut) does not overlap any live frame of the segment.
//
// It also checks that the worker-local max-E cell matches the current
// segment's exported set and that the logical stack's frame links terminate
// at a sentinel.
func (w *Worker) checkInvariants(where string) {
	if !w.M.Opts.CheckInvariants {
		return
	}
	sp := w.SP()
	curSeg := w.seg()
	if !curSeg.Region.Contains(sp) {
		w.fail(w.PC, "invariant check (%s): SP %d outside the current segment %v", where, sp, curSeg.Region)
	}

	// Collect the live frames of the current segment: its exported set
	// plus any logical-stack frames that live in it unexported.
	type span struct{ lo, hi int64 }
	var frames []span
	for _, e := range curSeg.Exported.Entries() {
		frames = append(frames, span{e.Low, e.FP})
	}
	fp := w.FP()
	if fp != 0 {
		d := w.M.descFor(w.PC)
		for depth := 0; fp != 0; depth++ {
			if depth > 1<<20 {
				w.fail(w.PC, "invariant check (%s): unterminated logical stack", where)
			}
			if s := w.segmentOf(fp); s != nil && !s.Exported.Contains(fp) {
				if d == nil {
					w.fail(w.PC, "invariant check (%s): frame %d has no descriptor", where, fp)
				}
				if s == curSeg {
					frames = append(frames, span{fp - d.FrameSize, fp})
				} else {
					// A live unexported frame in a non-current segment
					// would be unprotected: it must not exist.
					w.fail(w.PC, "invariant check (%s): unexported live frame %d in a non-current segment", where, fp)
				}
			}
			ret := w.M.Mem.Load(fp - 1)
			if ret == MagicHalt || ret == MagicSched {
				break
			}
			if ret < 0 {
				t, ok := w.M.thunks[ret]
				if !ok {
					w.fail(w.PC, "invariant check (%s): frame %d links to unknown magic pc %d", where, fp, ret)
				}
				d = w.M.descFor(t.resumePC)
			} else {
				d = w.M.descFor(ret)
			}
			fp = w.M.Mem.Load(fp - 2)
		}
	}

	minLow := curSeg.Region.Hi
	for _, f := range frames {
		if f.lo < minLow {
			minLow = f.lo
		}
		if sp > f.lo {
			w.fail(w.PC, "invariant 1 violated (%s): SP %d above live frame [%d,%d)", where, sp, f.lo, f.hi)
		}
	}

	// Invariant 2: if SP is not exactly the current frame's own low (i.e.
	// the current frame is not the physical top), the extension must hold.
	// With an empty logical stack no procedure is executing — nothing can
	// write SP-relative argument slots until StartThread/StartCall, which
	// re-establish the invariant — so the check is vacuous then.
	if cfp := w.FP(); cfp != 0 && len(frames) > 0 {
		curIsTop := false
		if curSeg.Region.Contains(cfp) {
			if d := w.M.descFor(w.PC); d != nil && sp == cfp-d.FrameSize && cfp-d.FrameSize <= minLow {
				curIsTop = true
			}
		}
		if !curIsTop && sp+w.M.Prog.MaxArgsOut > minLow {
			w.fail(w.PC, "invariant 2 violated (%s): arguments region [%d,%d) overlaps live frames (min low %d)",
				where, sp, sp+w.M.Prog.MaxArgsOut, minLow)
		}
	}

	// The max-E cell must mirror the current segment's exported set.
	cell := w.M.Mem.Load(w.WL.Lo + postproc.WLSlotMaxE)
	if want := curSeg.Exported.TopFP(w.maxESentinel()); cell != want {
		w.fail(w.PC, "invariant check (%s): max-E cell %d, want %d", where, cell, want)
	}
}
