package machine

import (
	"fmt"
	"math"

	"repro/internal/exportset"
	"repro/internal/isa"
	"repro/internal/obs"
)

// writeContext marshals a Context into simulated memory at addr (the
// paper's struct context, allocated by the program — typically on its own
// stack, as in Figure 8).
func (w *Worker) writeContext(addr int64, c *Context) {
	w.M.Mem.Store(addr+0, c.ResumePC)
	w.M.Mem.Store(addr+1, c.Top)
	w.M.Mem.Store(addr+2, c.Bottom)
	for i, v := range c.Regs {
		w.M.Mem.Store(addr+3+int64(i), v)
	}
}

// readContext unmarshals a Context from simulated memory.
func (w *Worker) readContext(addr int64) *Context {
	c := &Context{
		ResumePC: w.M.Mem.Load(addr + 0),
		Top:      w.M.Mem.Load(addr + 1),
		Bottom:   w.M.Mem.Load(addr + 2),
	}
	for i := range c.Regs {
		c.Regs[i] = w.M.Mem.Load(addr + 3 + int64(i))
	}
	if c.Top == 0 || c.Bottom == 0 {
		w.fail(w.PC, "malformed context at %d", addr)
	}
	return c
}

// runPureEpilogue executes the pure epilogue replica of d against the
// current frame: it restores FP and the callee-save registers d saves,
// leaves SP untouched, and returns the frame's return address. Purity is
// enforced — anything but loads and the final indirect jump is a fault.
func (w *Worker) runPureEpilogue(d *isa.Desc) int64 {
	pc := d.PureEpilogue
	dec := w.M.dec
	for {
		in := &dec[pc]
		w.Stats.Instrs++
		w.Cycles += int64(in.cost)
		switch in.op {
		case isa.Load:
			w.Regs[in.rd] = w.M.Mem.Load(w.Regs[in.ra] + in.imm)
		case isa.JmpReg:
			return w.Regs[in.ra]
		default:
			w.fail(pc, "impure instruction %v in pure epilogue of %s", in.op, d.Name)
		}
		pc++
	}
}

// exportFrame inserts a local frame into its segment's exported set
// (idempotent: frames suspended, restarted and suspended again are already
// present).
func (w *Worker) exportFrame(fp int64, d *isa.Desc) {
	s := w.segmentOf(fp)
	if s == nil {
		w.fail(w.PC, "exportFrame: %d not in any local segment", fp)
	}
	if !s.Exported.Contains(fp) {
		s.Exported.Push(exportset.Entry{FP: fp, Low: fp - d.FrameSize})
		w.Stats.Exports++
		if c := w.M.Opts.Obs; c != nil {
			c.ExportedSize.Observe(int64(s.Exported.Len()))
		}
	}
}

// boundary describes the link between an unwound frame and its parent.
type boundary struct {
	ret    int64 // pc at which the parent continues
	isFork bool
	bottom bool // the link is a scheduler/halt sentinel: no parent frame
}

// crossBoundary inspects (and, for thunks, consumes) the link behind return
// address ret. For an invalid frame's thunk it restores the registers saved
// at the restart call, exactly as if control had returned there.
func (w *Worker) crossBoundary(ret int64) boundary {
	if ret >= 0 {
		pd := w.M.descFor(ret)
		if pd == nil {
			w.fail(ret, "return address outside any procedure")
		}
		return boundary{ret: ret, isFork: pd.IsFork(ret - 1)}
	}
	if ret == MagicHalt || ret == MagicSched {
		return boundary{ret: ret, bottom: true}
	}
	t, ok := w.M.takeThunk(ret)
	if !ok {
		w.fail(ret, "unwound into unknown magic pc")
	}
	for i := 0; i < isa.NumCalleeSave; i++ {
		w.Regs[isa.R0+isa.Reg(i)] = t.regs[i]
	}
	isFork := t.isFork
	if !isFork {
		if cd := w.M.descFor(t.callsite); cd != nil && cd.IsFork(t.callsite) {
			isFork = true
		}
	}
	return boundary{ret: t.resumePC, isFork: isFork}
}

// SuspendCurrent implements suspend(c, n) from the current machine state
// (Section 3.4, Figure 6): snapshot the continuation, then unwind frames
// from the logical stack top with pure epilogues until n fork points have
// been crossed, exporting every unwound local frame and extending the
// physically top frame's arguments region. Execution continues as if the
// unwound frames had finished normally. resumePC is where the detached
// chain later resumes (for the suspend builtin, the call's return address;
// for runtime-driven suspension, the current pc).
func (w *Worker) SuspendCurrent(resumePC int64, n int) *Context {
	if n <= 0 {
		w.fail(w.PC, "suspend with n=%d", n)
	}
	w.Stats.Suspends++
	t0 := w.Cycles
	unwound := 0
	c := &Context{ResumePC: resumePC, Top: w.FP()}
	for i := 0; i < isa.NumCalleeSave; i++ {
		c.Regs[i] = w.Regs[isa.R0+isa.Reg(i)]
	}

	d := w.M.descFor(resumePC)
	if d == nil {
		w.fail(resumePC, "suspend resume pc outside any procedure")
	}
	forks := 0
	for {
		unwound++
		cur := w.FP()
		ret := w.runPureEpilogue(d)
		if w.Local(cur) {
			w.exportFrame(cur, d)
		}
		c.Bottom = cur
		b := w.crossBoundary(ret)
		if b.bottom {
			// The sentinel below the base segment is the boundary at which
			// the scheduler created this thread (ST_THREAD_CREATE at the
			// bottom of the logical stack), so it counts as a fork point.
			// The worker goes idle; its scheduler loop runs next.
			if forks+1 != n {
				w.fail(w.PC, "suspend(%d) unwound past the logical stack bottom (found %d forks)", n, forks)
			}
			w.Regs[isa.FP] = 0
			w.PC = MagicSched
			break
		}
		if b.isFork {
			forks++
			if forks == n {
				w.PC = b.ret
				break
			}
		}
		d = w.M.descFor(b.ret)
		if d == nil {
			w.fail(b.ret, "unwound into unknown code")
		}
	}
	w.extendTop()
	w.updateMaxECell()
	w.checkInvariants("suspend")
	if w.Obs != nil {
		w.Obs.Charge(obs.PhaseSuspend, w.Cycles-t0)
		w.M.Opts.Obs.Span(t0, w.Cycles, w.ID, "suspend", obs.Arg{K: "frames", V: int64(unwound)})
	}
	return c
}

// SuspendAllCurrent detaches the entire remaining logical stack down to the
// scheduler (or halt) sentinel, leaving the worker idle. The migration
// protocol uses it to hand the bottom thread to a thief (Figure 12's
// "give the thread at the bottom of the logical stack").
func (w *Worker) SuspendAllCurrent(resumePC int64) *Context {
	w.Stats.Suspends++
	t0 := w.Cycles
	unwound := 0
	c := &Context{ResumePC: resumePC, Top: w.FP()}
	for i := 0; i < isa.NumCalleeSave; i++ {
		c.Regs[i] = w.Regs[isa.R0+isa.Reg(i)]
	}
	d := w.M.descFor(resumePC)
	if d == nil {
		w.fail(resumePC, "suspend resume pc outside any procedure")
	}
	for {
		unwound++
		cur := w.FP()
		ret := w.runPureEpilogue(d)
		if w.Local(cur) {
			w.exportFrame(cur, d)
		}
		c.Bottom = cur
		b := w.crossBoundary(ret)
		if b.bottom {
			break
		}
		d = w.M.descFor(b.ret)
		if d == nil {
			w.fail(b.ret, "unwound into unknown code")
		}
	}
	w.Regs[isa.FP] = 0
	w.PC = MagicSched
	w.extendTop()
	w.updateMaxECell()
	if w.Obs != nil {
		w.Obs.Charge(obs.PhaseSuspend, w.Cycles-t0)
		w.M.Opts.Obs.Span(t0, w.Cycles, w.ID, "suspend-all", obs.Arg{K: "frames", V: int64(unwound)})
	}
	return c
}

// RestartChain implements restart(c) from the current machine state
// (Figure 7): the chain becomes the top of the logical stack, the current
// frame becomes the parent of the chain's bottom frame, and execution
// continues at the chain's resume point. The current frame turns invalid —
// its callee-save registers are saved in a thunk and restored when control
// returns through the patched link. callsite is the pc of the (possibly
// fork-marked) call performing the restart; realResume is where the current
// frame continues; markFork forces the boundary to count as a fork (the
// runtime's ASYNC_CALL(restart(...)) during migration).
func (w *Worker) RestartChain(c *Context, callsite, realResume int64, markFork bool) {
	w.Stats.Restarts++
	t := &thunk{resumePC: realResume, callsite: callsite, isFork: markFork, fp: w.FP()}
	for i := 0; i < isa.NumCalleeSave; i++ {
		t.regs[i] = w.Regs[isa.R0+isa.Reg(i)]
	}
	tpc := w.M.newThunkPC(t)
	w.M.Mem.Store(c.Bottom-1, tpc)
	w.M.Mem.Store(c.Bottom-2, w.FP())

	// Export the current frame when it lies above the chain's bottom frame
	// (Section 5.3, first subtle case): a later shrink must not reclaim it.
	// Frames of other workers' stacks count as "below" everything local.
	fp := w.FP()
	sameSeg := w.segmentOf(fp) != nil && w.segmentOf(fp) == w.segmentOf(c.Bottom)
	if !w.M.Opts.UnsafeNoRestartExport && w.Local(fp) && (!sameSeg || fp < c.Bottom) {
		d := w.M.descFor(callsite)
		if d == nil {
			w.fail(callsite, "restart call site outside any procedure")
		}
		w.exportFrame(fp, d)
	}

	for i := 0; i < isa.NumCalleeSave; i++ {
		w.Regs[isa.R0+isa.Reg(i)] = c.Regs[i]
	}
	w.Regs[isa.FP] = c.Top
	w.PC = c.ResumePC
	w.extendTop()
	w.updateMaxECell()
	w.checkInvariants("restart")
	if w.Obs != nil {
		w.M.Opts.Obs.Instant(w.Cycles, w.ID, "restart", obs.Arg{K: "top", V: c.Top})
	}
}

// StartThread begins executing a detached context on an idle worker (empty
// logical stack): the chain's bottom is linked to the scheduler sentinel.
func (w *Worker) StartThread(c *Context) {
	if w.FP() != 0 {
		w.fail(w.PC, "StartThread with a non-empty logical stack")
	}
	w.M.Mem.Store(c.Bottom-1, MagicSched)
	w.M.Mem.Store(c.Bottom-2, 0)
	for i := 0; i < isa.NumCalleeSave; i++ {
		w.Regs[isa.R0+isa.Reg(i)] = c.Regs[i]
	}
	w.Regs[isa.FP] = c.Top
	w.PC = c.ResumePC
	if w.seg().Exported.Empty() {
		w.Regs[isa.SP] = w.bottomSP()
	} else {
		w.switchSegmentIfPinned()
	}
	w.extendTop()
	w.updateMaxECell()
	w.checkInvariants("start-thread")
}

// StartCall begins a fresh call of the procedure at entry with the given
// arguments on an empty worker (the program's main thread).
func (w *Worker) StartCall(entry int64, args []int64) {
	if w.FP() != 0 {
		w.fail(w.PC, "StartCall with a non-empty logical stack")
	}
	w.Regs[isa.SP] = w.bottomSP()
	for i, a := range args {
		w.M.Mem.Store(w.Regs[isa.SP]+int64(i), a)
	}
	w.Regs[isa.LR] = MagicHalt
	w.PC = entry
}

// extendTop maintains Invariant 2 (Section 3.2): whenever the currently
// executing frame is not the physically top frame of this worker's stack,
// the stack is extended so that the outgoing-arguments region of any
// procedure — [SP, SP+MaxArgsOut) — cannot overlap a live frame. The
// extension size is the largest arguments region over all procedures, so no
// per-return adjustment is needed.
func (w *Worker) extendTop() {
	minLow := w.seg().Exported.MinLow(math.MaxInt64)
	curLow := int64(math.MaxInt64)
	fp := w.FP()
	if fp != 0 && w.Stack().Contains(fp) {
		if d := w.M.descFor(w.PC); d != nil {
			curLow = fp - d.FrameSize
		}
	}
	if curLow <= minLow {
		if curLow == math.MaxInt64 {
			return // no live local frames at all
		}
		if w.SP() == curLow {
			return // current frame is the physical top: no extension needed
		}
		minLow = curLow
	}
	target := minLow - w.M.Prog.MaxArgsOut
	if w.SP() > target {
		if target-4 < w.Stack().Lo {
			w.fail(w.PC, "stack overflow extending arguments region")
		}
		w.Regs[isa.SP] = target
		w.Stats.Extends++
	}
}

// Shrink performs the shrink operation of Section 5.2: pop finished frames
// (zeroed return-address slot) off the exported set and raise SP to the
// higher of the current frame and the new topmost exported frame, extending
// the latter's arguments region when it becomes the physical top.
func (w *Worker) Shrink() {
	w.sweepSegments()
	exp := &w.seg().Exported
	popped := 0
	for !exp.Empty() && w.M.Mem.Load(exp.Top().FP-1) == 0 {
		exp.PopTop()
		w.Stats.Shrinks++
		popped++
	}
	if popped == 0 {
		w.checkInvariants("shrink-noop")
		return
	}
	w.updateMaxECell()
	if w.Obs != nil {
		w.M.Opts.Obs.Instant(w.Cycles, w.ID, "shrink", obs.Arg{K: "popped", V: int64(popped)})
	}

	curLow := int64(-1)
	haveCur := false
	fp := w.FP()
	if fp != 0 && w.Stack().Contains(fp) {
		if d := w.M.descFor(w.PC); d != nil {
			curLow = fp - d.FrameSize
			haveCur = true
		}
	}
	switch {
	case exp.Empty() && haveCur:
		w.Regs[isa.SP] = curLow
	case exp.Empty():
		w.Regs[isa.SP] = w.bottomSP()
	case haveCur && fp < exp.Top().FP:
		// The current frame is above every exported frame: it is the
		// physical top again.
		w.Regs[isa.SP] = curLow
	default:
		// An exported frame becomes the physical top; extend its
		// arguments region (the model's X + {max E'}).
		w.Regs[isa.SP] = exp.Top().Low
		w.extendTop()
	}
	w.checkInvariants("shrink")
}

// CountThreads walks the logical stack and returns the number of threads it
// holds: the number of fork boundaries plus one for the base segment.
// Returns zero for an empty stack. The walk is pure — callers that model a
// runtime scan charge cycles themselves.
func (w *Worker) CountThreads() int {
	fp := w.FP()
	if fp == 0 {
		return 0
	}
	threads := 1
	for depth := 0; ; depth++ {
		if depth > 1<<20 {
			w.fail(w.PC, "logical stack walk did not terminate")
		}
		ret := w.M.Mem.Load(fp - 1)
		if ret == MagicHalt || ret == MagicSched {
			return threads
		}
		if ret < 0 {
			t, ok := w.M.thunks[ret]
			if !ok {
				w.fail(ret, "logical stack walk hit unknown magic pc")
			}
			if t.isFork {
				threads++
			} else if cd := w.M.descFor(t.callsite); cd != nil && cd.IsFork(t.callsite) {
				threads++
			}
		} else {
			pd := w.M.descFor(ret)
			if pd == nil {
				w.fail(ret, "logical stack walk hit unknown code")
			}
			if pd.IsFork(ret - 1) {
				threads++
			}
		}
		fp = w.M.Mem.Load(fp - 2)
		if fp == 0 {
			return threads
		}
	}
}

// runBuiltin dispatches a runtime service call. It returns resume=false
// when the worker must stop (halt, lock contention); otherwise it has set
// w.PC. Callers go through the builtin wrapper (obs.go), which attributes
// runtime-service cycles to their phase when observability is on.
func (w *Worker) runBuiltin(b isa.Builtin, callPC int64) (Event, bool) {
	w.Cycles += w.M.Cost.BuiltinCost[b]
	m := w.M
	sp := w.Regs[isa.SP]
	arg := func(i int64) int64 { return w.M.Mem.Load(sp + i) }
	toLR := func() { w.PC = w.Regs[isa.LR] }

	switch b {
	case isa.BSuspend:
		ctxAddr, n := arg(0), arg(1)
		c := w.SuspendCurrent(w.Regs[isa.LR], int(n))
		w.writeContext(ctxAddr, c)
	case isa.BSuspendU:
		if m.Opts.CilkCost {
			w.Cycles += m.Cost.CilkSyncCost // a sync that actually blocks
		}
		ctxAddr, n, lockAddr := arg(0), arg(1), arg(2)
		c := w.SuspendCurrent(w.Regs[isa.LR], int(n))
		w.writeContext(ctxAddr, c)
		w.M.Mem.Store(lockAddr, 0)
	case isa.BRestart:
		c := w.readContext(arg(0))
		w.RestartChain(c, callPC, w.Regs[isa.LR], false)
	case isa.BResume:
		c := w.readContext(arg(0))
		w.ReadyQ.PushTail(c)
		toLR()
	case isa.BAlloc:
		a, err := m.Mem.Alloc(arg(0))
		if err != nil {
			w.fail(callPC, "alloc: %v", err)
		}
		w.Regs[isa.RV] = a
		toLR()
	case isa.BPrintInt:
		fmt.Fprintf(m.Opts.Out, "%d\n", arg(0))
		toLR()
	case isa.BPrintFloat:
		fmt.Fprintf(m.Opts.Out, "%g\n", b2f(arg(0)))
		toLR()
	case isa.BLock:
		addr := arg(0)
		if w.M.Mem.Load(addr) != 0 {
			w.PC = callPC // retry the lock when rescheduled
			return EvBlocked, false
		}
		w.M.Mem.Store(addr, int64(w.ID)+1)
		toLR()
	case isa.BUnlock:
		w.M.Mem.Store(arg(0), 0)
		toLR()
	case isa.BRand:
		w.Regs[isa.RV] = int64(m.nextRand() >> 1)
		toLR()
	case isa.BSin:
		w.Regs[isa.RV] = f2b(math.Sin(b2f(arg(0))))
		toLR()
	case isa.BCos:
		w.Regs[isa.RV] = f2b(math.Cos(b2f(arg(0))))
		toLR()
	case isa.BSqrt:
		w.Regs[isa.RV] = f2b(math.Sqrt(b2f(arg(0))))
		toLR()
	case isa.BWorkerID:
		w.Regs[isa.RV] = int64(w.ID)
		toLR()
	case isa.BNumWorkers:
		w.Regs[isa.RV] = int64(len(m.Workers))
		toLR()
	case isa.BMemCopy:
		dst, src, n := arg(0), arg(1), arg(2)
		for i := int64(0); i < n; i++ {
			w.M.Mem.Store(dst+i, w.M.Mem.Load(src+i))
		}
		w.Cycles += n * (m.Cost.OpCost[isa.Load] + m.Cost.OpCost[isa.Store])
		toLR()
	case isa.BMemSet:
		addr, v, n := arg(0), arg(1), arg(2)
		for i := int64(0); i < n; i++ {
			w.M.Mem.Store(addr+i, v)
		}
		w.Cycles += n * m.Cost.OpCost[isa.Store]
		toLR()
	case isa.BLibCall, isa.BLockedLibCall:
		w.Cycles += arg(0)
		if b == isa.BLockedLibCall || m.Opts.LockedLib {
			w.Cycles += m.Cost.LockedLibExtra
		}
		toLR()
	case isa.BShrink:
		w.Shrink()
		toLR()
	case isa.BCanary:
		addr, val, flags := arg(0), arg(1), arg(2)
		if cm := m.Opts.Canary; cm != nil {
			cm.register(w, addr, val, flags&1 != 0)
		}
		w.M.Mem.Store(addr, val)
		toLR()
	case isa.BCanaryRetire:
		addr, want := arg(0), arg(1)
		if cm := m.Opts.Canary; cm != nil {
			cm.retire(w, addr, want, w.M.Mem.Load(addr))
		}
		toLR()
	case isa.BHalt:
		w.PC = w.Regs[isa.LR]
		return EvHalt, false
	default:
		w.fail(callPC, "unknown builtin %v", b)
	}
	return 0, true
}
