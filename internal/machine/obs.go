package machine

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// This file holds every machine-side observability hook. All hooks are
// reached only behind a `w.Obs != nil` check and never charge virtual
// cycles, so a run with observability off is cycle- and instruction-
// identical to one with it on (guarded by TestObsDisabledPathFree).

// obsMaxStackDepth bounds the profiler's logical-stack walk.
const obsMaxStackDepth = 64

// obsTick runs once per interpreted instruction when observability is on:
// it attributes the instruction's cost when the pc belongs to an augmented
// epilogue's free check or a poll point, and fires the sampling profiler
// when the worker's virtual clock crosses the next sample boundary.
//
// In Cilk cost mode neither attribution applies: the interpreter refunds
// poll points entirely and refunds the check per call, so charging them to
// a phase would double-book cycles the run never pays.
func (w *Worker) obsTick(pc int64, d *decoded) {
	o := w.Obs
	if !w.M.Opts.CilkCost {
		if d.isCheck {
			o.Charge(obs.PhaseEpilogue, int64(d.cost))
		} else if d.op == isa.Poll {
			o.Charge(obs.PhasePoll, int64(d.cost))
		}
	}
	if w.Cycles >= o.NextSample {
		w.obsSample(pc)
	}
}

// obsSample records one profiler observation: the executing pc plus the
// call sites of every frame on the logical stack (flat/cumulative
// attribution). The walk is read-only, charges nothing, and bails out
// rather than trap on any half-formed frame.
func (w *Worker) obsSample(pc int64) {
	o := w.Obs
	// A long uninterrupted operation may cross several sample periods at
	// once; weight the observation by how many.
	periods := (w.Cycles-o.NextSample)/o.Period + 1
	o.NextSample += periods * o.Period

	pcs := append(w.obsStack[:0], pc)
	// Only walk the stack when the current frame is fully formed (the same
	// guard the Cilk thief uses); otherwise FP may name the caller's frame
	// or garbage.
	if d := w.M.descFor(pc); d != nil && pc >= d.BodyStart && pc < d.EpilogueStart {
		fp := w.FP()
		size := w.M.Mem.Size()
		for depth := 0; fp != 0 && depth < obsMaxStackDepth; depth++ {
			if fp-2 < mem.Guard || fp >= size {
				break
			}
			ret := w.M.Mem.Load(fp - 1)
			if ret == MagicHalt || ret == MagicSched || ret == 0 {
				break
			}
			if ret < 0 {
				t, ok := w.M.thunks[ret]
				if !ok {
					break
				}
				pcs = append(pcs, t.callsite)
			} else {
				pcs = append(pcs, ret-1) // the parent's call instruction
			}
			fp = w.M.Mem.Load(fp - 2)
		}
	}
	w.obsStack = pcs
	o.AddSample(periods, pcs)
}

// obsBuiltinPhase maps runtime-service builtins to the phase their cost
// belongs to; ok is false for ordinary library builtins (user work).
func obsBuiltinPhase(b isa.Builtin) (obs.Phase, bool) {
	switch b {
	case isa.BSuspend, isa.BSuspendU:
		return obs.PhaseSuspend, true
	case isa.BRestart, isa.BResume:
		return obs.PhaseRestart, true
	case isa.BShrink:
		return obs.PhaseStack, true
	}
	return 0, false
}

// builtin wraps runBuiltin with delta-based phase attribution: whatever the
// builtin charged beyond what inner hooks (SuspendCurrent's unwind
// accounting) already attributed goes to the builtin's own phase.
func (w *Worker) builtin(b isa.Builtin, callPC int64) (Event, bool) {
	if w.Obs == nil {
		return w.runBuiltin(b, callPC)
	}
	t0, a0 := w.Cycles, w.Obs.AttributedTotal()
	ev, resume := w.runBuiltin(b, callPC)
	if p, ok := obsBuiltinPhase(b); ok {
		if d := (w.Cycles - t0) - (w.Obs.AttributedTotal() - a0); d > 0 {
			w.Obs.Charge(p, d)
		}
	}
	return ev, resume
}
