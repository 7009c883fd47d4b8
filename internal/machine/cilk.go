package machine

import (
	"repro/internal/isa"
)

// cilkFrame is one frame of a Cilk steal's stack walk.
type cilkFrame struct {
	fp int64
	d  *isa.Desc
}

// StealOldestCilk performs a thief-driven steal in Cilk mode: it detaches
// the continuation of the victim's oldest outstanding fork — the frames
// from the forking parent down to the logical stack bottom — without the
// victim's cooperation and without touching the victim's registers, SP or
// execution position.
//
// Cilk-5's THE protocol can do this because every spawn pre-pays to keep
// the parent's live state in an explicit heap frame. Here the equivalent
// information sits in the calling-standard frames themselves: the thief
// reconstructs the parent's callee-save register state by replaying the
// register restores of every frame above the boundary into a scratch
// register file (a side-effect-free virtual unwind).
//
// The detached local frames enter the victim's exported set — they will be
// finished remotely by the thief — and the frame just above the boundary is
// re-linked to the scheduler sentinel, so the victim drops into its
// scheduler loop when its remaining segment completes.
//
// Returns nil when the victim has no fork boundary on its stack.
func (v *Worker) StealOldestCilk() *Context {
	fp := v.FP()
	if fp == 0 {
		return nil
	}
	d := v.M.descFor(v.PC)
	if d == nil {
		return nil
	}
	// The victim may be paused mid-prologue or mid-epilogue, where its
	// frame is half-formed and FP may still name the caller's frame. A
	// real THE-protocol thief synchronizes on deque state instead; here
	// the thief simply retries later. (The victim is also unstealable
	// while a builtin or pure epilogue runs, but those execute atomically
	// within the simulation, so a pause can never observe them.)
	if v.PC < d.BodyStart || v.PC >= d.EpilogueStart {
		return nil
	}

	var scratch [isa.NumCalleeSave]int64
	for i := range scratch {
		scratch[i] = v.Regs[isa.R0+isa.Reg(i)]
	}

	// The walk's frames go into the worker's scratch slice, reused across
	// steal attempts.
	frames := v.stealFrames[:0]

	found := false
	var (
		bChild   int64
		bTop     int64
		bResume  int64
		bRegs    [isa.NumCalleeSave]int64
		bThunkPC int64
		bIndex   int
	)

	for depth := 0; ; depth++ {
		if depth > 1<<20 {
			v.fail(v.PC, "cilk steal walk did not terminate")
		}
		frames = append(frames, cilkFrame{fp, d})
		for k, r := range d.SavedRegs {
			scratch[r-isa.R0] = v.M.Mem.Load(fp - int64(3+k))
		}
		ret := v.M.Mem.Load(fp - 1)
		parent := v.M.Mem.Load(fp - 2)
		if ret == MagicHalt || ret == MagicSched {
			break
		}
		if ret < 0 {
			t, ok := v.M.thunks[ret]
			if !ok {
				v.fail(ret, "cilk steal walk hit unknown magic pc")
			}
			scratch = t.regs
			isFork := t.isFork
			if !isFork {
				if cd := v.M.descFor(t.callsite); cd != nil && cd.IsFork(t.callsite) {
					isFork = true
				}
			}
			if isFork {
				found = true
				bChild, bTop, bResume, bRegs, bThunkPC, bIndex = fp, parent, t.resumePC, scratch, ret, len(frames)
			}
			d = v.M.descFor(t.resumePC)
		} else {
			pd := v.M.descFor(ret)
			if pd == nil {
				v.fail(ret, "cilk steal walk hit unknown code")
			}
			if pd.IsFork(ret - 1) {
				found = true
				bChild, bTop, bResume, bRegs, bThunkPC, bIndex = fp, parent, ret, scratch, 0, len(frames)
			}
			d = pd
		}
		fp = parent
		if fp == 0 {
			break
		}
	}
	v.stealFrames = frames
	if !found {
		return nil
	}

	c := &Context{ResumePC: bResume, Top: bTop, Bottom: frames[len(frames)-1].fp, Regs: bRegs}
	if bThunkPC != 0 {
		delete(v.M.thunks, bThunkPC)
	}
	v.M.Mem.Store(bChild-1, MagicSched)
	v.M.Mem.Store(bChild-2, 0)
	for _, f := range frames[bIndex:] {
		if v.Local(f.fp) {
			v.exportFrame(f.fp, f.d)
		}
	}
	v.updateMaxECell()
	v.Stats.Suspends++ // account the detach like a suspension
	return c
}
