package machine

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// This file implements the interpreter's trace JIT (DESIGN.md §19): hot
// program points are detected by a per-pc arrival counter (obs.Hotness),
// compiled once into superblock traces of pre-decoded superinstruction
// steps, and executed by runJIT with the dispatch overhead the outer
// interpreter loop pays per instruction amortized over whole traces.
//
// A trace starts at a "head" pc (procedure entry, branch/jmp target, call
// return site or poll resume point — see buildJITHeads) and follows the
// fall-through path: straightline instructions fuse into steps (runs of
// consecutive loads or stores collapse into one step each, a const feeding
// an immediately following compare-branch collapses into one fused
// branch-immediate step), conditional branches stay in the trace on their
// fall-through edge and leave it on their taken edge, and calls, jumps and
// register-indirect jumps end the trace by *chaining*: if the target pc has
// its own compiled trace, execution transfers directly without returning to
// the outer loop.
//
// Correctness is by deoptimization, never by re-implementation of the cold
// paths: anything the trace cannot express exactly — builtin calls,
// malformed call targets, unknown opcodes, a budget deadline too close for
// the next step segment — exits back to the per-instruction reference
// interpreter with the worker's architectural state (PC, Cycles, Instrs)
// synchronized to the exact values that path would hold. Because every step
// records the static prefix cost/instruction count from its trace entry
// (the path from entry to any step is unique: taken branches leave the
// trace), synchronization is two additions and a store, on traps as well as
// on clean exits. The JIT therefore changes host speed only; the lockstep
// property tests (jit_test.go) and the engine equivalence matrix prove the
// artifacts are byte-identical with it on or off.
//
// Speculation: chained-speculation quanta execute against page-granular
// private views with write logging, so the JIT is gated off whenever
// w.spec != nil (the same reasoning that keeps runBlock plain). Spec views
// thus keep seeing every write through their own path; the JIT never
// bypasses them because it never runs under them.

const (
	// jitHotThreshold is the arrival count at which a head pc compiles.
	jitHotThreshold = 24
	// jitMaxSteps caps a trace's step count; longer fall-through paths end
	// in a clean exit and continue through the outer loop (which will have
	// compiled a trace for the continuation if it is itself hot).
	jitMaxSteps = 192
	// jitCheckCycles bounds the worst-case cycle cost between budget
	// checks inside a trace: before any step segment that could exceed it,
	// the compiler plants a check step that deoptimizes when the deadline
	// is too close. Small enough that a quantum tail falls back to the
	// per-instruction path well before the deadline, large enough that
	// checks are rare on the hot path.
	jitCheckCycles = 48
	// jitNeverBound is the entry bound of a sentinel trace: an entry check
	// against it always fails, so uncompilable head pcs permanently fall
	// through to the reference interpreter without re-counting.
	jitNeverBound = int64(1) << 60
)

// Step kinds. The straightline kinds mirror the interpreter's opcode cases
// one-for-one; the rest are fusions and terminators.
const (
	jopConst uint8 = iota
	jopMov
	jopAdd
	jopSub
	jopMul
	jopDiv
	jopMod
	jopAnd
	jopOr
	jopXor
	jopShl
	jopShr
	jopAddI
	jopMulI
	jopLoad
	jopStore
	jopTas
	jopFAdd
	jopFSub
	jopFMul
	jopFDiv
	jopFNeg
	jopFCmp
	jopItoF
	jopFtoI
	// jopLoadRun / jopStoreRun execute a run of ≥2 consecutive load /
	// store instructions as one step (s.pairs, one entry per instruction).
	jopLoadRun
	jopStoreRun
	// jopStoreRunC / jopStoreRunA fold a `const rd, imm` / `addi rd, ra,
	// imm` immediately preceding a store run (length ≥1) into the run step:
	// the arithmetic executes first, then the stores — exactly the
	// sequential order, so no operand constraints are needed.
	jopStoreRunC
	jopStoreRunA
	// Conditional branches: fall through to the next step, or flush and
	// chain to s.target when taken.
	jopBeq
	jopBne
	jopBlt
	jopBle
	jopBgt
	jopBge
	// Fused `const rd, imm` + compare-branch against rd: writes rd and
	// compares regs[ra] with imm in one step (two instructions).
	jopBeqI
	jopBneI
	jopBltI
	jopBleI
	jopBgtI
	jopBgeI
	// Fused `load rd, [base+imm]` (s.pairs[0]) + compare-branch: the load
	// executes, then the branch compares regs[ra] with regs[rb] (either may
	// be the just-loaded register — sequential order is preserved).
	jopBeqL
	jopBneL
	jopBltL
	jopBleL
	jopBgtL
	jopBgeL
	// Terminators.
	jopJmp    // flush, chain to s.target
	jopJmpReg // flush, chain to regs[ra] (dynamic; magic pcs exit)
	jopCall   // full call semantics, flush, chain to s.target
	jopPoll   // continue unless PollSignal: then flush and return EvPoll
	jopCheck  // deoptimize unless the next segment fits under the deadline
	jopExit   // flush and return to the outer loop at s.target
	// jopRetFrame fuses the four-instruction epilogue tail `load; mov;
	// load; jmpreg` (the return sequence every procedure runs) into one
	// terminator: two bounds-checked loads (s.pairs), the register move
	// (s.rd ← s.ra), then a dynamic chain to regs[s.rb].
	jopRetFrame
)

// jitPair is one instruction of a fused load/store run: address
// regs[base]+imm, value register reg (source for stores, destination for
// loads).
type jitPair struct {
	imm  int64
	base isa.Reg
	reg  isa.Reg
}

// jitStep is one superinstruction of a compiled trace. cyc and ins are the
// static prefix sums from trace entry *through* this step's instructions
// (for jopCheck and jopExit: through the last instruction before them) —
// the exact values to add to w.Cycles / w.Stats.Instrs when leaving the
// trace at this step.
type jitStep struct {
	imm    int64
	desc   *isa.Desc // jopCall: callee descriptor
	pairs  []jitPair // jopLoadRun / jopStoreRun
	pc     int32     // virtual pc of the step's first instruction
	cyc    int32
	ins    int32
	target int32 // chain/deopt/resume pc (see kinds above)
	adjust int32 // jopCall: precomputed callAdjust
	bound  int32 // jopCheck: worst-case cycles to the next check or exit
	kind   uint8
	rd     isa.Reg
	ra     isa.Reg
	rb     isa.Reg
}

// jitTrace is a compiled superblock. entryBound is the worst-case cycle
// cost from entry to the first check step or exit — entering is safe only
// while w.Cycles+entryBound < deadline, which both the outer loop and
// chain transfers verify.
type jitTrace struct {
	steps      []jitStep
	entryBound int64
}

// jitState is one worker's JIT: per-pc hotness counts and the compiled
// trace cache. It is per-worker (not per-machine) so concurrent host
// goroutines never share mutable JIT state — compilation is cheap enough
// that duplicating it beats locking the dispatch path. Everything here is
// host-side: capture/restore, snapshots and speculation never see it.
type jitState struct {
	hot    *obs.Hotness
	traces []*jitTrace
	// Host-side diagnostics (sched folds them into Contention).
	compiled int64
	deopts   int64
}

func newJITState(m *Machine) *jitState {
	return &jitState{
		hot:    obs.NewHotness(len(m.dec), jitHotThreshold),
		traces: make([]*jitTrace, len(m.dec)),
	}
}

// JITCounters reports the worker's host-side JIT diagnostics: traces
// compiled and budget deoptimizations. Zero when the JIT is off.
func (w *Worker) JITCounters() (compiled, deopts int64) {
	if w.jit == nil {
		return 0, 0
	}
	return w.jit.compiled, w.jit.deopts
}

// buildJITHeads marks the pcs where traces may start: procedure entries,
// jmp and branch targets, call return sites and poll resume points. Every
// pc the JIT can chain to or the outer loop can re-enter at is a head, so
// hot control-flow cycles close entirely inside the trace cache. Built
// once per machine (immutable, shared read-only by all workers).
func (m *Machine) buildJITHeads() []bool {
	heads := make([]bool, len(m.dec))
	mark := func(pc int64) {
		if pc >= 0 && pc < int64(len(heads)) {
			heads[pc] = true
		}
	}
	for _, d := range m.Prog.Descs {
		mark(d.Entry)
	}
	for pc := range m.dec {
		switch d := &m.dec[pc]; d.op {
		case isa.Jmp:
			mark(d.imm)
		case isa.Beq, isa.Bne, isa.Blt, isa.Ble, isa.Bgt, isa.Bge:
			mark(d.imm)
		case isa.Call, isa.Poll, isa.JmpReg:
			mark(int64(pc) + 1)
		}
	}
	return heads
}

// compile builds the trace starting at head pc `start`, or a sentinel
// trace (entryBound = jitNeverBound) when the head's first instruction
// cannot be expressed — the outer loop then stops counting it. Runs on
// the worker's own goroutine; reads only immutable machine state.
func (j *jitState) compile(m *Machine, start int64) *jitTrace {
	dec := m.dec
	prog := int64(len(dec))
	var steps []jitStep
	var cyc, ins int32 // prefix sums through the last charged instruction
	segBase := int32(0)
	lastCheck := -1
	entryBound := int32(0)

	emit := func(s jitStep) {
		steps = append(steps, s)
	}
	// closeSegment records the worst-case cost of the segment ending here
	// (entry→first check, or check→next check/exit). extra covers a final
	// call's positive cycle adjustment.
	closeSegment := func(extra int32) {
		if lastCheck < 0 {
			entryBound = cyc - segBase + extra
		} else {
			steps[lastCheck].bound = cyc - segBase + extra
		}
	}
	emitCheck := func(pc int64) {
		if lastCheck < 0 {
			entryBound = cyc - segBase
		} else {
			steps[lastCheck].bound = cyc - segBase
		}
		steps = append(steps, jitStep{kind: jopCheck, pc: int32(pc), target: int32(pc), cyc: cyc, ins: ins})
		lastCheck = len(steps) - 1
		segBase = cyc
	}
	exitAt := func(pc int64) {
		closeSegment(0)
		emit(jitStep{kind: jopExit, pc: int32(pc), target: int32(pc), cyc: cyc, ins: ins})
	}

	pc := start
	for {
		if pc >= prog || len(steps) >= jitMaxSteps {
			exitAt(pc)
			break
		}
		d := &dec[pc]
		c := int32(d.cost)
		if cyc-segBase+c > jitCheckCycles {
			emitCheck(pc)
		}
		switch d.op {
		case isa.Nop:
			// Metadata only: charged and counted via the prefix sums, no
			// step emitted.
			cyc += c
			ins++
			pc++
			continue
		case isa.Load, isa.Store:
			// The return-sequence tail every epilogue runs — restore the
			// link register, pop the frame, restore the caller's FP, jump —
			// fuses into one terminating superinstruction.
			if d.op == isa.Load && pc+3 < prog &&
				dec[pc+1].op == isa.Mov && dec[pc+2].op == isa.Load && dec[pc+3].op == isa.JmpReg {
				d1, d2, d3 := &dec[pc+1], &dec[pc+2], &dec[pc+3]
				cyc += c + int32(d1.cost) + int32(d2.cost) + int32(d3.cost)
				ins += 4
				emit(jitStep{kind: jopRetFrame, pc: int32(pc),
					pairs: []jitPair{
						{imm: d.imm, base: d.ra, reg: d.rd},
						{imm: d2.imm, base: d2.ra, reg: d2.rd},
					},
					rd: d1.rd, ra: d1.ra, rb: d3.ra,
					// Static tail costs after each load, for exact trap sync.
					target: int32(d1.cost) + int32(d2.cost) + int32(d3.cost),
					adjust: int32(d3.cost),
					cyc:    cyc, ins: ins})
				closeSegment(0)
				break
			}
			// Fuse the maximal run of consecutive same-op instructions.
			n := int64(1)
			for pc+n < prog && dec[pc+n].op == d.op {
				n++
			}
			cyc += int32(n) * c
			ins += int32(n)
			// A `const` or `addi` immediately preceding a store run folds
			// into it (the arithmetic result is usually the stored value —
			// frame setup, join-cell initialization, argument spills). The
			// arithmetic still executes first, so operands may overlap
			// freely.
			if d.op == isa.Store {
				if sn := len(steps); sn > 0 {
					if p := &steps[sn-1]; p.pc == int32(pc-1) && (p.kind == jopConst || p.kind == jopAddI) {
						pairs := make([]jitPair, n)
						for i := int64(0); i < n; i++ {
							di := &dec[pc+i]
							pairs[i] = jitPair{imm: di.imm, base: di.ra, reg: di.rb}
						}
						if p.kind == jopConst {
							p.kind = jopStoreRunC
						} else {
							p.kind = jopStoreRunA
						}
						p.pairs = pairs
						p.cyc, p.ins = cyc, ins
						pc += n
						continue
					}
				}
			}
			if n >= 2 {
				kind := jopLoadRun
				if d.op == isa.Store {
					kind = jopStoreRun
				}
				pairs := make([]jitPair, n)
				for i := int64(0); i < n; i++ {
					di := &dec[pc+i]
					reg := di.rd // load destination
					if d.op == isa.Store {
						reg = di.rb // store source
					}
					pairs[i] = jitPair{imm: di.imm, base: di.ra, reg: reg}
				}
				emit(jitStep{kind: kind, pc: int32(pc), pairs: pairs, cyc: cyc, ins: ins})
				pc += n
				continue
			}
			kind := jopLoad
			if d.op == isa.Store {
				kind = jopStore
			}
			emit(jitStep{kind: kind, pc: int32(pc), imm: d.imm,
				rd: d.rd, ra: d.ra, rb: d.rb, cyc: cyc, ins: ins})
			pc++
			continue
		case isa.Beq, isa.Bne, isa.Blt, isa.Ble, isa.Bgt, isa.Bge:
			kind := jopBeq + uint8(d.op-isa.Beq)
			cyc += c
			ins++
			// Fuse `const rb, imm` immediately preceding the branch when
			// the branch compares against that register (and nothing else
			// intervened — the const must be the last emitted step).
			if n := len(steps); n > 0 {
				if p := &steps[n-1]; p.kind == jopConst && p.pc == int32(pc-1) &&
					p.rd == d.rb && d.ra != d.rb {
					p.kind = jopBeqI + uint8(d.op-isa.Beq)
					p.ra = d.ra
					p.target = int32(d.imm)
					p.cyc = cyc
					p.ins = ins
					pc++
					continue
				} else if p.kind == jopLoad && p.pc == int32(pc-1) {
					// Fuse `load` + compare-branch (the join-counter and
					// stack-limit checks on every return path).
					p.kind = jopBeqL + uint8(d.op-isa.Beq)
					p.pairs = []jitPair{{imm: p.imm, base: p.ra, reg: p.rd}}
					p.ra, p.rb = d.ra, d.rb
					p.target = int32(d.imm)
					p.adjust = int32(c) // tail cost after the load, for trap sync
					p.cyc = cyc
					p.ins = ins
					pc++
					continue
				}
			}
			emit(jitStep{kind: kind, pc: int32(pc), target: int32(d.imm),
				ra: d.ra, rb: d.rb, cyc: cyc, ins: ins})
			pc++
			continue
		case isa.Jmp:
			cyc += c
			ins++
			if d.imm == pc+1 {
				// Fall-through jump (a join point the assembler kept
				// explicit): charged via the prefix sums, no step, and the
				// trace continues straight through.
				pc++
				continue
			}
			emit(jitStep{kind: jopJmp, pc: int32(pc), target: int32(d.imm), cyc: cyc, ins: ins})
			closeSegment(0)
		case isa.JmpReg:
			cyc += c
			ins++
			emit(jitStep{kind: jopJmpReg, pc: int32(pc), ra: d.ra, cyc: cyc, ins: ins})
			closeSegment(0)
		case isa.Call:
			if d.builtin != 0 || d.callDesc == nil {
				// Builtins (including the canary pair) and malformed
				// targets deoptimize: the reference interpreter charges
				// their cost and runs the runtime service.
				exitAt(pc)
				break
			}
			cyc += c
			ins++
			emit(jitStep{kind: jopCall, pc: int32(pc), imm: pc + 1,
				target: int32(d.imm), desc: d.callDesc, adjust: d.callAdjust, cyc: cyc, ins: ins})
			extra := d.callAdjust
			if extra < 0 {
				extra = 0
			}
			closeSegment(extra)
		case isa.Poll:
			if m.Opts.CilkCost {
				// Charged then refunded: net zero cycles, one instruction.
				ins++
				pc++
				continue
			}
			cyc += c
			ins++
			emit(jitStep{kind: jopPoll, pc: int32(pc), target: int32(pc + 1), cyc: cyc, ins: ins})
			pc++
			continue
		default:
			if d.op.Straightline() {
				kind, ok := jopForOp(d.op)
				if !ok {
					exitAt(pc)
					break
				}
				cyc += c
				ins++
				emit(jitStep{kind: kind, pc: int32(pc), imm: d.imm,
					rd: d.rd, ra: d.ra, rb: d.rb, cyc: cyc, ins: ins})
				pc++
				continue
			}
			// Unknown opcode: the reference interpreter owns the fault.
			exitAt(pc)
		}
		break
	}
	if ins == 0 {
		return &jitTrace{entryBound: jitNeverBound}
	}
	j.compiled++
	return &jitTrace{steps: steps, entryBound: int64(entryBound)}
}

// jopForOp maps a straightline opcode to its step kind.
func jopForOp(op isa.Op) (uint8, bool) {
	switch op {
	case isa.Const:
		return jopConst, true
	case isa.Mov:
		return jopMov, true
	case isa.Add:
		return jopAdd, true
	case isa.Sub:
		return jopSub, true
	case isa.Mul:
		return jopMul, true
	case isa.Div:
		return jopDiv, true
	case isa.Mod:
		return jopMod, true
	case isa.And:
		return jopAnd, true
	case isa.Or:
		return jopOr, true
	case isa.Xor:
		return jopXor, true
	case isa.Shl:
		return jopShl, true
	case isa.Shr:
		return jopShr, true
	case isa.AddI:
		return jopAddI, true
	case isa.MulI:
		return jopMulI, true
	case isa.Tas:
		return jopTas, true
	case isa.FAdd:
		return jopFAdd, true
	case isa.FSub:
		return jopFSub, true
	case isa.FMul:
		return jopFMul, true
	case isa.FDiv:
		return jopFDiv, true
	case isa.FNeg:
		return jopFNeg, true
	case isa.FCmp:
		return jopFCmp, true
	case isa.ItoF:
		return jopItoF, true
	case isa.FtoI:
		return jopFtoI, true
	}
	return 0, false
}

// jitSync flushes the trace-local prefix state for a fault at step s: the
// faulting instruction's cost charged and execution counted, w.PC naming
// it — identical to blockSync's contract.
func (w *Worker) jitSync(s *jitStep) {
	w.Cycles += int64(s.cyc)
	w.Stats.Instrs += int64(s.ins)
	w.PC = int64(s.pc)
}

// jitRunTrap raises the memory trap for pair i of a fused load/store run
// whose first memory instruction sits at firstPC (the step pc itself, or
// one past it when an arithmetic op is folded in front), with the worker
// synchronized exactly as the per-instruction path would be at that
// instruction. opCost is the run's uniform per-instruction cost.
func (w *Worker) jitRunTrap(s *jitStep, firstPC int64, i int, opCost int64, kind string, a int64) {
	tail := int64(len(s.pairs) - 1 - i)
	w.Cycles += int64(s.cyc) - tail*opCost
	w.Stats.Instrs += int64(s.ins) - tail
	w.PC = firstPC + int64(i)
	panic(&mem.Trap{Kind: kind, Addr: a})
}

// runJIT executes compiled traces starting at t until an event must be
// returned (done=true) or control leaves the trace cache (done=false, with
// w.PC, w.Cycles and w.Stats.Instrs synchronized for the outer loop). The
// caller has verified the execution environment is plain (no tracing,
// observability or speculation) and that w.Cycles+t.entryBound < deadline;
// chain transfers re-verify that invariant against the target's own bound,
// so the hot loop itself carries no per-step deadline checks — only the
// compiler-planted jopCheck steps consult the budget. (A per-step careful
// mode that ran quantum tails inside the trace was tried and measured
// ~10% slower overall: the per-step branch taxes every step of the hot
// path to save a tail the batched reference path already handles well.)
func (w *Worker) runJIT(t *jitTrace, deadline int64) (ev Event, done bool) {
	j := w.jit
	m := w.M
	words := m.Mem.Words()
	size := int64(len(words))
	regs := &w.Regs
	steps := t.steps
	si := 0
	for {
		s := &steps[si]
		si++
		switch s.kind {
		case jopConst:
			regs[s.rd] = s.imm
			continue
		case jopMov:
			regs[s.rd] = regs[s.ra]
			continue
		case jopAdd:
			regs[s.rd] = regs[s.ra] + regs[s.rb]
			continue
		case jopSub:
			regs[s.rd] = regs[s.ra] - regs[s.rb]
			continue
		case jopMul:
			regs[s.rd] = regs[s.ra] * regs[s.rb]
			continue
		case jopDiv:
			if regs[s.rb] == 0 {
				w.jitSync(s)
				w.fail(int64(s.pc), "division by zero")
			}
			regs[s.rd] = regs[s.ra] / regs[s.rb]
			continue
		case jopMod:
			if regs[s.rb] == 0 {
				w.jitSync(s)
				w.fail(int64(s.pc), "modulo by zero")
			}
			regs[s.rd] = regs[s.ra] % regs[s.rb]
			continue
		case jopAnd:
			regs[s.rd] = regs[s.ra] & regs[s.rb]
			continue
		case jopOr:
			regs[s.rd] = regs[s.ra] | regs[s.rb]
			continue
		case jopXor:
			regs[s.rd] = regs[s.ra] ^ regs[s.rb]
			continue
		case jopShl:
			regs[s.rd] = regs[s.ra] << uint64(regs[s.rb]&63)
			continue
		case jopShr:
			regs[s.rd] = regs[s.ra] >> uint64(regs[s.rb]&63)
			continue
		case jopAddI:
			regs[s.rd] = regs[s.ra] + s.imm
			continue
		case jopMulI:
			regs[s.rd] = regs[s.ra] * s.imm
			continue
		case jopLoad:
			a := regs[s.ra] + s.imm
			if a < mem.Guard || a >= size {
				w.jitSync(s)
				panic(&mem.Trap{Kind: "load", Addr: a})
			}
			regs[s.rd] = words[a]
			continue
		case jopStore:
			a := regs[s.ra] + s.imm
			if a < mem.Guard || a >= size {
				w.jitSync(s)
				panic(&mem.Trap{Kind: "store", Addr: a})
			}
			if h := m.storeHook; h != nil {
				h(a)
			}
			words[a] = regs[s.rb]
			continue
		case jopTas:
			a := regs[s.ra] + s.imm
			if a < mem.Guard || a >= size {
				w.jitSync(s)
				panic(&mem.Trap{Kind: "load", Addr: a})
			}
			regs[s.rd] = words[a]
			if h := m.storeHook; h != nil {
				h(a)
			}
			words[a] = 1
			continue
		case jopLoadRun:
			cost := int64(m.Cost.OpCost[isa.Load])
			for i := range s.pairs {
				p := &s.pairs[i]
				a := regs[p.base] + p.imm
				if a < mem.Guard || a >= size {
					w.jitRunTrap(s, int64(s.pc), i, cost, "load", a)
				}
				regs[p.reg] = words[a]
			}
			continue
		case jopStoreRun:
			cost := int64(m.Cost.OpCost[isa.Store])
			hook := m.storeHook
			for i := range s.pairs {
				p := &s.pairs[i]
				a := regs[p.base] + p.imm
				if a < mem.Guard || a >= size {
					w.jitRunTrap(s, int64(s.pc), i, cost, "store", a)
				}
				if hook != nil {
					hook(a)
				}
				words[a] = regs[p.reg]
			}
			continue
		case jopStoreRunC, jopStoreRunA:
			if s.kind == jopStoreRunC {
				regs[s.rd] = s.imm
			} else {
				regs[s.rd] = regs[s.ra] + s.imm
			}
			cost := int64(m.Cost.OpCost[isa.Store])
			hook := m.storeHook
			for i := range s.pairs {
				p := &s.pairs[i]
				a := regs[p.base] + p.imm
				if a < mem.Guard || a >= size {
					// The stores begin one instruction past the folded
					// arithmetic op at s.pc.
					w.jitRunTrap(s, int64(s.pc)+1, i, cost, "store", a)
				}
				if hook != nil {
					hook(a)
				}
				words[a] = regs[p.reg]
			}
			continue
		case jopFAdd:
			regs[s.rd] = f2b(b2f(regs[s.ra]) + b2f(regs[s.rb]))
			continue
		case jopFSub:
			regs[s.rd] = f2b(b2f(regs[s.ra]) - b2f(regs[s.rb]))
			continue
		case jopFMul:
			regs[s.rd] = f2b(b2f(regs[s.ra]) * b2f(regs[s.rb]))
			continue
		case jopFDiv:
			regs[s.rd] = f2b(b2f(regs[s.ra]) / b2f(regs[s.rb]))
			continue
		case jopFNeg:
			regs[s.rd] = f2b(-b2f(regs[s.ra]))
			continue
		case jopFCmp:
			a, b := b2f(regs[s.ra]), b2f(regs[s.rb])
			switch {
			case a < b:
				regs[s.rd] = -1
			case a > b:
				regs[s.rd] = 1
			default:
				regs[s.rd] = 0
			}
			continue
		case jopItoF:
			regs[s.rd] = f2b(float64(regs[s.ra]))
			continue
		case jopFtoI:
			regs[s.rd] = int64(b2f(regs[s.ra]))
			continue
		case jopBeq:
			if regs[s.ra] != regs[s.rb] {
				continue
			}
		case jopBne:
			if regs[s.ra] == regs[s.rb] {
				continue
			}
		case jopBlt:
			if regs[s.ra] >= regs[s.rb] {
				continue
			}
		case jopBle:
			if regs[s.ra] > regs[s.rb] {
				continue
			}
		case jopBgt:
			if regs[s.ra] <= regs[s.rb] {
				continue
			}
		case jopBge:
			if regs[s.ra] < regs[s.rb] {
				continue
			}
		case jopBeqI:
			regs[s.rd] = s.imm
			if regs[s.ra] != s.imm {
				continue
			}
		case jopBneI:
			regs[s.rd] = s.imm
			if regs[s.ra] == s.imm {
				continue
			}
		case jopBltI:
			regs[s.rd] = s.imm
			if regs[s.ra] >= s.imm {
				continue
			}
		case jopBleI:
			regs[s.rd] = s.imm
			if regs[s.ra] > s.imm {
				continue
			}
		case jopBgtI:
			regs[s.rd] = s.imm
			if regs[s.ra] <= s.imm {
				continue
			}
		case jopBgeI:
			regs[s.rd] = s.imm
			if regs[s.ra] < s.imm {
				continue
			}
		case jopBeqL, jopBneL, jopBltL, jopBleL, jopBgtL, jopBgeL:
			p := &s.pairs[0]
			a := regs[p.base] + p.imm
			if a < mem.Guard || a >= size {
				w.Cycles += int64(s.cyc) - int64(s.adjust)
				w.Stats.Instrs += int64(s.ins) - 1
				w.PC = int64(s.pc)
				panic(&mem.Trap{Kind: "load", Addr: a})
			}
			regs[p.reg] = words[a]
			x, y := regs[s.ra], regs[s.rb]
			var taken bool
			switch s.kind {
			case jopBeqL:
				taken = x == y
			case jopBneL:
				taken = x != y
			case jopBltL:
				taken = x < y
			case jopBleL:
				taken = x <= y
			case jopBgtL:
				taken = x > y
			default:
				taken = x >= y
			}
			if !taken {
				continue
			}
		case jopJmp:
			// Fall through to the chain transfer.
		case jopJmpReg:
			w.Cycles += int64(s.cyc)
			w.Stats.Instrs += int64(s.ins)
			pc := regs[s.ra]
			if uint64(pc) < uint64(len(j.traces)) {
				if nt := j.traces[pc]; nt != nil && nt.steps != nil && w.Cycles+nt.entryBound < deadline {
					steps, si = nt.steps, 0
					continue
				}
			}
			w.PC = pc
			return 0, false
		case jopRetFrame:
			p0 := &s.pairs[0]
			a0 := regs[p0.base] + p0.imm
			if a0 < mem.Guard || a0 >= size {
				w.Cycles += int64(s.cyc) - int64(s.target)
				w.Stats.Instrs += int64(s.ins) - 3
				w.PC = int64(s.pc)
				panic(&mem.Trap{Kind: "load", Addr: a0})
			}
			regs[p0.reg] = words[a0]
			regs[s.rd] = regs[s.ra]
			p1 := &s.pairs[1]
			a1 := regs[p1.base] + p1.imm
			if a1 < mem.Guard || a1 >= size {
				w.Cycles += int64(s.cyc) - int64(s.adjust)
				w.Stats.Instrs += int64(s.ins) - 1
				w.PC = int64(s.pc) + 2
				panic(&mem.Trap{Kind: "load", Addr: a1})
			}
			regs[p1.reg] = words[a1]
			w.Cycles += int64(s.cyc)
			w.Stats.Instrs += int64(s.ins)
			pc := regs[s.rb]
			if uint64(pc) < uint64(len(j.traces)) {
				if nt := j.traces[pc]; nt != nil && nt.steps != nil && w.Cycles+nt.entryBound < deadline {
					steps, si = nt.steps, 0
					continue
				}
			}
			w.PC = pc
			return 0, false
		case jopCall:
			regs[isa.LR] = s.imm
			w.Stats.Calls++
			d := s.desc
			if regs[isa.SP]-d.FrameSize-4 < w.Stack().Lo {
				w.jitSync(s)
				w.fail(int64(s.pc), "stack overflow calling %s", d.Name)
			}
			if depth := w.Stack().Hi - (regs[isa.SP] - d.FrameSize); depth > w.Stats.StackHighWater {
				w.Stats.StackHighWater = depth
			}
			w.Cycles += int64(s.adjust)
			// Fall through to the chain transfer.
		case jopPoll:
			if !w.PollSignal {
				continue
			}
			w.Cycles += int64(s.cyc)
			w.Stats.Instrs += int64(s.ins)
			w.PC = int64(s.target)
			return EvPoll, true
		case jopCheck:
			if w.Cycles+int64(s.cyc)+int64(s.bound) < deadline {
				continue
			}
			// The next segment's worst case may cross the deadline:
			// deoptimize to the reference path, which finds the exact
			// instruction where EvBudget fires.
			j.deopts++
			w.Cycles += int64(s.cyc)
			w.Stats.Instrs += int64(s.ins)
			w.PC = int64(s.target)
			return 0, false
		case jopExit:
			w.Cycles += int64(s.cyc)
			w.Stats.Instrs += int64(s.ins)
			w.PC = int64(s.target)
			return 0, false
		}
		// Taken branch, jmp or call: flush the prefix and chain.
		w.Cycles += int64(s.cyc)
		w.Stats.Instrs += int64(s.ins)
		tpc := int64(s.target)
		if uint64(tpc) < uint64(len(j.traces)) {
			if nt := j.traces[tpc]; nt != nil && nt.steps != nil && w.Cycles+nt.entryBound < deadline {
				steps, si = nt.steps, 0
				continue
			}
		}
		w.PC = tpc
		return 0, false
	}
}
