package machine

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// runtimeError is a simulated-program fault raised inside the interpreter
// and recovered at the Run boundary.
type runtimeError struct {
	worker int
	pc     int64
	msg    string
}

func (e *runtimeError) Error() string {
	return fmt.Sprintf("worker %d: pc %d: %s", e.worker, e.pc, e.msg)
}

func (w *Worker) fail(pc int64, format string, args ...any) {
	panic(&runtimeError{worker: w.ID, pc: pc, msg: fmt.Sprintf(format, args...)})
}

// Run executes instructions until an event occurs or the cycle budget is
// exhausted. The budget is in virtual cycles; pass math.MaxInt64 to run to
// the next event.
//
// The loop is driven by the flat decode cache (decode.go): one entry per pc
// holding the resolved opcode cost, registers, procedure descriptor, call
// adjustments and straight-line run metadata. Unless NoFastPath is set, runs
// of straightline instructions execute as a batch (runBlock) with cycles
// charged in bulk and the budget checked only at run boundaries; the batch
// is entered only when the whole run fits under the deadline, so EvBudget
// fires at the identical instruction either way. With observability
// attached, the profiler's next sample boundary is a second deadline: a run
// is batched only if it ends strictly before it, so the reference path still
// executes, stack-walks and samples the exact instruction that crosses the
// boundary, and the run's epilogue-check cycles are charged in one piece.
func (w *Worker) Run(budget int64) (ev Event) {
	deadline := w.Cycles + budget
	if budget > 0 && deadline < w.Cycles {
		deadline = math.MaxInt64 // saturate: a huge finite budget means "run to the next event"
	}
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *mem.Trap:
				w.Err = fmt.Errorf("worker %d: pc %d: %w", w.ID, w.PC, e)
			case *runtimeError:
				w.Err = e
			default:
				panic(r)
			}
			ev = EvTrap
		}
	}()

	dec := w.M.dec
	// The batched fast path executes with deferred state writes, so it
	// requires that nothing observe state between the instructions of a
	// run. Observability is compatible because its only per-instruction
	// work inside a straight-line run is bulk-chargeable (the run's
	// epilogue-check cost, runCheckCost) and its sampler is honored as a
	// second deadline (ob.NextSample below). Everything the batch skips is
	// observationally redundant, so turning it off (NoFastPath) changes
	// nothing but host speed.
	fast := !w.M.Opts.NoFastPath
	ob := w.Obs

	for {
		pc := w.PC
		// The common case is one predictable branch: pc >= 0 falls straight
		// through to the decode-cache dispatch. Halt/scheduler sentinels and
		// restart thunks take the cold path.
		if pc < 0 {
			ev, done := w.magicPC(pc)
			if done {
				return ev
			}
			continue
		}
		if w.Cycles >= deadline {
			return EvBudget
		}
		if pc >= int64(len(dec)) {
			w.fail(pc, "pc out of program")
		}

		d := &dec[pc]
		if fast && d.runLen > 1 && w.Cycles < deadline-int64(d.runCostButLast) &&
			(ob == nil || w.Cycles+int64(d.runCost) < ob.NextSample) {
			w.runBlock(pc, d)
			continue
		}

		w.Stats.Instrs++
		w.Cycles += int64(d.cost)
		if ob != nil {
			w.obsTick(pc, d)
		}
		next := pc + 1

		switch d.op {
		case isa.Nop:
		case isa.Const:
			w.Regs[d.rd] = d.imm
		case isa.Mov:
			w.Regs[d.rd] = w.Regs[d.ra]
		case isa.Add:
			w.Regs[d.rd] = w.Regs[d.ra] + w.Regs[d.rb]
		case isa.Sub:
			w.Regs[d.rd] = w.Regs[d.ra] - w.Regs[d.rb]
		case isa.Mul:
			w.Regs[d.rd] = w.Regs[d.ra] * w.Regs[d.rb]
		case isa.Div:
			if w.Regs[d.rb] == 0 {
				w.fail(pc, "division by zero")
			}
			w.Regs[d.rd] = w.Regs[d.ra] / w.Regs[d.rb]
		case isa.Mod:
			if w.Regs[d.rb] == 0 {
				w.fail(pc, "modulo by zero")
			}
			w.Regs[d.rd] = w.Regs[d.ra] % w.Regs[d.rb]
		case isa.And:
			w.Regs[d.rd] = w.Regs[d.ra] & w.Regs[d.rb]
		case isa.Or:
			w.Regs[d.rd] = w.Regs[d.ra] | w.Regs[d.rb]
		case isa.Xor:
			w.Regs[d.rd] = w.Regs[d.ra] ^ w.Regs[d.rb]
		case isa.Shl:
			w.Regs[d.rd] = w.Regs[d.ra] << uint64(w.Regs[d.rb]&63)
		case isa.Shr:
			w.Regs[d.rd] = w.Regs[d.ra] >> uint64(w.Regs[d.rb]&63)
		case isa.AddI:
			w.Regs[d.rd] = w.Regs[d.ra] + d.imm
		case isa.MulI:
			w.Regs[d.rd] = w.Regs[d.ra] * d.imm
		case isa.Load:
			w.Regs[d.rd] = w.M.Mem.Load(w.Regs[d.ra] + d.imm)
		case isa.Store:
			w.M.Mem.Store(w.Regs[d.ra]+d.imm, w.Regs[d.rb])
		case isa.Tas:
			// Atomic under the discrete-event scheduler: instructions are
			// indivisible across workers.
			a := w.Regs[d.ra] + d.imm
			w.Regs[d.rd] = w.M.Mem.Load(a)
			w.M.Mem.Store(a, 1)
		case isa.Jmp:
			next = d.imm
		case isa.JmpReg:
			next = w.Regs[d.ra]
		case isa.Beq:
			if w.Regs[d.ra] == w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Bne:
			if w.Regs[d.ra] != w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Blt:
			if w.Regs[d.ra] < w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Ble:
			if w.Regs[d.ra] <= w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Bgt:
			if w.Regs[d.ra] > w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Bge:
			if w.Regs[d.ra] >= w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Call:
			w.Regs[isa.LR] = next
			if d.builtin != 0 {
				// The builtin sets w.PC itself (normally to LR; suspend and
				// restart transfer control elsewhere).
				ev, resume := w.builtin(isa.Builtin(d.builtin), pc)
				if !resume {
					return ev
				}
				continue
			}
			w.Stats.Calls++
			t := d.callDesc
			if t == nil {
				w.fail(pc, "call to invalid target %d", d.imm)
			}
			if w.Regs[isa.SP]-t.FrameSize-4 < w.Stack().Lo {
				w.fail(pc, "stack overflow calling %s", t.Name)
			}
			if depth := w.Stack().Hi - (w.Regs[isa.SP] - t.FrameSize); depth > w.Stats.StackHighWater {
				w.Stats.StackHighWater = depth
			}
			// The code-generation cost settings (Figures 17-20: register
			// windows, omitted frame pointers, Cilk spawn/check accounting)
			// collapse to one precomputed adjustment; see decode.go.
			w.Cycles += int64(d.callAdjust)
			next = d.imm
		case isa.Poll:
			if w.M.Opts.CilkCost {
				w.Cycles -= int64(d.cost) // Cilk code has no poll points
			} else if w.PollSignal {
				w.PC = next
				return EvPoll
			}
		case isa.FAdd:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) + b2f(w.Regs[d.rb]))
		case isa.FSub:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) - b2f(w.Regs[d.rb]))
		case isa.FMul:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) * b2f(w.Regs[d.rb]))
		case isa.FDiv:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) / b2f(w.Regs[d.rb]))
		case isa.FNeg:
			w.Regs[d.rd] = f2b(-b2f(w.Regs[d.ra]))
		case isa.FCmp:
			a, b := b2f(w.Regs[d.ra]), b2f(w.Regs[d.rb])
			switch {
			case a < b:
				w.Regs[d.rd] = -1
			case a > b:
				w.Regs[d.rd] = 1
			default:
				w.Regs[d.rd] = 0
			}
		case isa.ItoF:
			w.Regs[d.rd] = f2b(float64(w.Regs[d.ra]))
		case isa.FtoI:
			w.Regs[d.rd] = int64(b2f(w.Regs[d.ra]))
		default:
			w.fail(pc, "illegal opcode %v", d.op)
		}
		w.PC = next
	}
}

// magicPC handles a control transfer to a negative pc: the halt and
// scheduler sentinels end the run (done=true), and a restart thunk restores
// the callee-save registers saved at the restart call and redirects w.PC
// (Section 3.4). Kept out of Run so the hot loop's pc >= 0 case stays
// fall-through.
func (w *Worker) magicPC(pc int64) (Event, bool) {
	switch pc {
	case MagicHalt:
		return EvHalt, true
	case MagicSched:
		return EvBottom, true
	}
	t, ok := w.M.takeThunk(pc)
	if !ok {
		w.fail(pc, "jump to unknown magic pc")
	}
	// Control has returned to an invalid frame: restore the callee-save
	// registers saved at the restart call (Section 3.4).
	if w.Regs[isa.FP] != t.fp {
		w.fail(pc, "invalid-frame thunk FP mismatch: have %d, want %d", w.Regs[isa.FP], t.fp)
	}
	for i := 0; i < isa.NumCalleeSave; i++ {
		w.Regs[isa.R0+isa.Reg(i)] = t.regs[i]
	}
	w.PC = t.resumePC
	return 0, false
}

// runBlock executes the whole straight-line run of d0.runLen instructions
// starting at pc `start` as one batch: registers and memory update in place,
// but PC, cycles and the instruction count are written once at the end. The
// caller has already verified the entire run fits under the budget deadline
// (and before the next profiler sample) and that NoFastPath is unset, and
// straightline instructions cannot branch or reach the runtime, so no
// per-instruction checks are needed and memory is accessed directly through
// the page table with an inline guard check. The table is fetched once per
// batch: nothing inside a
// batch maps memory, and a store into a page that has never been written
// materializes it in this same table through Memory.Store. The only panics
// a block can raise are its own simulated faults, each preceded by
// blockSync, which synchronizes PC/cycles/instruction count to the exact
// state the per-instruction path would hold at the trap (the faulting
// instruction charged and counted, w.PC naming it) — required both for
// Run's trap formatting and for trap-state determinism.
func (w *Worker) runBlock(start int64, d0 *decoded) {
	dec := w.M.dec
	memory := w.M.Mem
	pages := memory.Pages()
	size := memory.Size()
	end := start + int64(d0.runLen)
	regs := &w.Regs
	for pc := start; pc < end; pc++ {
		d := &dec[pc]
		switch d.op {
		case isa.Nop:
		case isa.Const:
			regs[d.rd] = d.imm
		case isa.Mov:
			regs[d.rd] = regs[d.ra]
		case isa.Add:
			regs[d.rd] = regs[d.ra] + regs[d.rb]
		case isa.Sub:
			regs[d.rd] = regs[d.ra] - regs[d.rb]
		case isa.Mul:
			regs[d.rd] = regs[d.ra] * regs[d.rb]
		case isa.Div:
			if regs[d.rb] == 0 {
				w.blockSync(start, pc, d0)
				w.fail(pc, "division by zero")
			}
			regs[d.rd] = regs[d.ra] / regs[d.rb]
		case isa.Mod:
			if regs[d.rb] == 0 {
				w.blockSync(start, pc, d0)
				w.fail(pc, "modulo by zero")
			}
			regs[d.rd] = regs[d.ra] % regs[d.rb]
		case isa.And:
			regs[d.rd] = regs[d.ra] & regs[d.rb]
		case isa.Or:
			regs[d.rd] = regs[d.ra] | regs[d.rb]
		case isa.Xor:
			regs[d.rd] = regs[d.ra] ^ regs[d.rb]
		case isa.Shl:
			regs[d.rd] = regs[d.ra] << uint64(regs[d.rb]&63)
		case isa.Shr:
			regs[d.rd] = regs[d.ra] >> uint64(regs[d.rb]&63)
		case isa.AddI:
			regs[d.rd] = regs[d.ra] + d.imm
		case isa.MulI:
			regs[d.rd] = regs[d.ra] * d.imm
		case isa.Load:
			a := regs[d.ra] + d.imm
			if a < mem.Guard || a >= size {
				w.blockTrap(start, pc, d0, "load", a)
			}
			if pg := pages[a>>mem.PageShift]; pg != nil {
				regs[d.rd] = pg[a&mem.PageMask]
			} else {
				regs[d.rd] = 0
			}
		case isa.Store:
			a := regs[d.ra] + d.imm
			if a < mem.Guard || a >= size {
				w.blockTrap(start, pc, d0, "store", a)
			}
			if pg := pages[a>>mem.PageShift]; pg != nil {
				pg[a&mem.PageMask] = regs[d.rb]
			} else {
				memory.Store(a, regs[d.rb])
			}
		case isa.Tas:
			a := regs[d.ra] + d.imm
			if a < mem.Guard || a >= size {
				w.blockTrap(start, pc, d0, "load", a)
			}
			if pg := pages[a>>mem.PageShift]; pg != nil {
				regs[d.rd] = pg[a&mem.PageMask]
				pg[a&mem.PageMask] = 1
			} else {
				regs[d.rd] = 0
				memory.Store(a, 1)
			}
		case isa.FAdd:
			regs[d.rd] = f2b(b2f(regs[d.ra]) + b2f(regs[d.rb]))
		case isa.FSub:
			regs[d.rd] = f2b(b2f(regs[d.ra]) - b2f(regs[d.rb]))
		case isa.FMul:
			regs[d.rd] = f2b(b2f(regs[d.ra]) * b2f(regs[d.rb]))
		case isa.FDiv:
			regs[d.rd] = f2b(b2f(regs[d.ra]) / b2f(regs[d.rb]))
		case isa.FNeg:
			regs[d.rd] = f2b(-b2f(regs[d.ra]))
		case isa.FCmp:
			a, b := b2f(regs[d.ra]), b2f(regs[d.rb])
			switch {
			case a < b:
				regs[d.rd] = -1
			case a > b:
				regs[d.rd] = 1
			default:
				regs[d.rd] = 0
			}
		case isa.ItoF:
			regs[d.rd] = f2b(float64(regs[d.ra]))
		case isa.FtoI:
			regs[d.rd] = int64(b2f(regs[d.ra]))
		default:
			// Unreachable: only Straightline ops are batched.
			w.blockSync(start, pc, d0)
			w.fail(pc, "illegal opcode %v", d.op)
		}
	}
	w.blockDone(d0, end)
}

// blockDone commits a completed batch: the run's cycles, instruction count
// and epilogue-check attribution, charged once, and the new pc.
func (w *Worker) blockDone(d0 *decoded, end int64) {
	w.Cycles += int64(d0.runCost)
	w.Stats.Instrs += int64(d0.runLen)
	w.PC = end
	w.batched += int64(d0.runCost)
	if o := w.Obs; o != nil && d0.runCheckCost != 0 {
		o.Charge(obs.PhaseEpilogue, int64(d0.runCheckCost))
	}
}

// BatchedCycles reports the virtual cycles the worker executed on the
// batched straight-line tier — a host-side tier-residency diagnostic.
func (w *Worker) BatchedCycles() int64 { return w.batched }

// blockSync synchronizes the worker's architectural state to the exact
// per-instruction state at pc inside the batch starting at start: the
// instructions before pc completed, pc's cost is charged and its execution
// counted, and w.PC names it. Within a run, runCost is a suffix sum, so the
// completed prefix costs d0.runCost - d.runCost; runCheckCost likewise
// yields the prefix's epilogue-check cycles, which the per-instruction
// path would already have attributed. Called only on the cold trap paths.
func (w *Worker) blockSync(start, pc int64, d0 *decoded) {
	d := &w.M.dec[pc]
	done := int64(d0.runCost-d.runCost) + int64(d.cost)
	w.PC = pc
	w.Cycles += done
	w.Stats.Instrs += (pc - start) + 1
	w.batched += done
	if o := w.Obs; o != nil {
		if c := int64(d0.runCheckCost-d.runCheckCost) + int64(w.M.checkCost(d)); c != 0 {
			o.Charge(obs.PhaseEpilogue, c)
		}
	}
}

// blockTrap raises the memory trap the per-instruction path's Load or
// Store would raise at pc, with identical worker state.
func (w *Worker) blockTrap(start, pc int64, d0 *decoded, kind string, a int64) {
	w.blockSync(start, pc, d0)
	panic(&mem.Trap{Kind: kind, Addr: a})
}

func b2f(v int64) float64 { return math.Float64frombits(uint64(v)) }
func f2b(v float64) int64 { return int64(math.Float64bits(v)) }
