// Package asm is the "sequential compiler" of the reproduction: a builder
// DSL that emits procedures obeying the simulated machine's calling
// standard (see package isa).
//
// Programs written against this package correspond to the C sources of the
// paper: they know nothing about threads beyond marking some calls as forks
// (ASYNC_CALL), which the builder encodes exactly as the paper's Figure 4
// does — by bracketing the call with calls to the dummy procedures
// __st_fork_block_begin and __st_fork_block_end, which the postprocessor
// later removes.
//
// The builder performs what a sequential compiler performs: it allocates a
// frame sized for locals, saved callee-save registers and the largest
// outgoing-arguments region of any call in the body; it emits a prologue
// that links the frame to the caller's (saving LR and the parent FP at
// fixed FP-relative slots); and it emits a single epilogue that frees the
// frame by resetting SP. It never caches SP across calls — the
// "-call-destroys-sp" discipline proposed in Section 6.
package asm

import (
	"fmt"

	"repro/internal/isa"
)

// Pseudo opcodes used only between the builder and Assemble; they are
// lowered once the saved-register set (and hence local slot offsets) is
// known. Values sit far above the real opcode range.
const (
	opLoadLocal  = isa.Op(200 + iota) // Rd <- mem[FP - (3+S+Imm)]
	opStoreLocal                      // mem[FP - (3+S+Imm)] <- Rb
	opLocalAddr                       // Rd <- FP - (3+S+Imm)
)

// Lbl identifies a branch target inside one procedure body.
type Lbl int

// B builds one procedure body.
type B struct {
	unit      *Unit
	name      string
	numArgs   int
	numLocals int
	body      []isa.Instr
	// labelPos[l] is the body index the label is bound to, -1 if unbound.
	labelPos []int
	// fixups[i] is the label of body[i] when its target needs patching.
	fixups map[int]Lbl
	retLbl Lbl
	errs   []error
	sealed bool
	slot   int
}

// Unit is a compilation unit: a set of procedures assembled together.
type Unit struct {
	procs    []*isa.Proc
	builders []*B
	names    map[string]bool
	errs     []error
}

// NewUnit creates an empty compilation unit.
func NewUnit() *Unit {
	return &Unit{names: make(map[string]bool)}
}

// Proc starts a new procedure with the given argument and local counts.
// Finish the body with Seal (or let Unit.Build seal it).
func (u *Unit) Proc(name string, numArgs, numLocals int) *B {
	if u.names[name] {
		u.errs = append(u.errs, fmt.Errorf("asm: duplicate procedure %q", name))
	}
	u.names[name] = true
	b := &B{
		unit:      u,
		name:      name,
		numArgs:   numArgs,
		numLocals: numLocals,
		fixups:    make(map[int]Lbl),
	}
	b.retLbl = b.NewLabel()
	u.procs = append(u.procs, nil) // reserve slot; filled by Seal
	b.slot = len(u.procs) - 1
	u.builders = append(u.builders, b)
	return b
}

func (b *B) emit(i isa.Instr) {
	if b.sealed {
		b.errs = append(b.errs, fmt.Errorf("asm: %s: emit after Seal", b.name))
		return
	}
	b.body = append(b.body, i)
}

// NewLabel allocates an unbound label.
func (b *B) NewLabel() Lbl {
	b.labelPos = append(b.labelPos, -1)
	return Lbl(len(b.labelPos) - 1)
}

// Bind binds l to the current body position.
func (b *B) Bind(l Lbl) {
	if b.labelPos[l] != -1 {
		b.errs = append(b.errs, fmt.Errorf("asm: %s: label bound twice", b.name))
		return
	}
	b.labelPos[l] = len(b.body)
}

func (b *B) branch(op isa.Op, a, r isa.Reg, l Lbl) {
	b.fixups[len(b.body)] = l
	b.emit(isa.Instr{Op: op, Ra: a, Rb: r})
}

// Const sets d to the immediate v.
func (b *B) Const(d isa.Reg, v int64) { b.emit(isa.Instr{Op: isa.Const, Rd: d, Imm: v}) }

// ConstF sets d to the raw bits of the float64 v.
func (b *B) ConstF(d isa.Reg, v float64) {
	b.emit(isa.Instr{Op: isa.Const, Rd: d, Imm: int64(floatBits(v))})
}

// Mov copies a to d.
func (b *B) Mov(d, a isa.Reg) { b.emit(isa.Instr{Op: isa.Mov, Rd: d, Ra: a}) }

// Three-register ALU ops.
func (b *B) Add(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Add, Rd: d, Ra: a, Rb: r}) }
func (b *B) Sub(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Sub, Rd: d, Ra: a, Rb: r}) }
func (b *B) Mul(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Mul, Rd: d, Ra: a, Rb: r}) }
func (b *B) Div(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Div, Rd: d, Ra: a, Rb: r}) }
func (b *B) Mod(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Mod, Rd: d, Ra: a, Rb: r}) }
func (b *B) And(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.And, Rd: d, Ra: a, Rb: r}) }
func (b *B) Or(d, a, r isa.Reg)  { b.emit(isa.Instr{Op: isa.Or, Rd: d, Ra: a, Rb: r}) }
func (b *B) Xor(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Xor, Rd: d, Ra: a, Rb: r}) }
func (b *B) Shl(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Shl, Rd: d, Ra: a, Rb: r}) }
func (b *B) Shr(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.Shr, Rd: d, Ra: a, Rb: r}) }

// AddI sets d to a + imm.
func (b *B) AddI(d, a isa.Reg, imm int64) { b.emit(isa.Instr{Op: isa.AddI, Rd: d, Ra: a, Imm: imm}) }

// MulI sets d to a * imm.
func (b *B) MulI(d, a isa.Reg, imm int64) { b.emit(isa.Instr{Op: isa.MulI, Rd: d, Ra: a, Imm: imm}) }

// Float ops (operands are float64 raw bits).
func (b *B) FAdd(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.FAdd, Rd: d, Ra: a, Rb: r}) }
func (b *B) FSub(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.FSub, Rd: d, Ra: a, Rb: r}) }
func (b *B) FMul(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.FMul, Rd: d, Ra: a, Rb: r}) }
func (b *B) FDiv(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.FDiv, Rd: d, Ra: a, Rb: r}) }
func (b *B) FNeg(d, a isa.Reg)    { b.emit(isa.Instr{Op: isa.FNeg, Rd: d, Ra: a}) }
func (b *B) FCmp(d, a, r isa.Reg) { b.emit(isa.Instr{Op: isa.FCmp, Rd: d, Ra: a, Rb: r}) }
func (b *B) ItoF(d, a isa.Reg)    { b.emit(isa.Instr{Op: isa.ItoF, Rd: d, Ra: a}) }
func (b *B) FtoI(d, a isa.Reg)    { b.emit(isa.Instr{Op: isa.FtoI, Rd: d, Ra: a}) }

// Load sets d to mem[base + off].
func (b *B) Load(d, base isa.Reg, off int64) {
	b.emit(isa.Instr{Op: isa.Load, Rd: d, Ra: base, Imm: off})
}

// Store writes src to mem[base + off].
func (b *B) Store(base isa.Reg, off int64, src isa.Reg) {
	b.emit(isa.Instr{Op: isa.Store, Ra: base, Imm: off, Rb: src})
}

// Tas atomically sets d to mem[base + off] and stores 1 there.
func (b *B) Tas(d, base isa.Reg, off int64) {
	b.emit(isa.Instr{Op: isa.Tas, Rd: d, Ra: base, Imm: off})
}

// LoadArg sets d to incoming argument i (mem[FP + i]).
func (b *B) LoadArg(d isa.Reg, i int) {
	if i < 0 || i >= b.numArgs {
		b.errs = append(b.errs, fmt.Errorf("asm: %s: arg %d out of range", b.name, i))
	}
	b.Load(d, isa.FP, int64(i))
}

// StoreArg overwrites incoming argument i with src.
func (b *B) StoreArg(i int, src isa.Reg) { b.Store(isa.FP, int64(i), src) }

// LoadLocal, StoreLocal and LocalAddr access local slot i; the final
// FP-relative offset depends on how many callee-save registers the body
// saves, so they lower during Seal.
func (b *B) LoadLocal(d isa.Reg, i int) {
	b.checkLocal(i)
	b.emit(isa.Instr{Op: opLoadLocal, Rd: d, Imm: int64(i)})
}

// StoreLocal writes src to local slot i.
func (b *B) StoreLocal(i int, src isa.Reg) {
	b.checkLocal(i)
	b.emit(isa.Instr{Op: opStoreLocal, Rb: src, Imm: int64(i)})
}

// LocalAddr sets d to the address of local slot i (used for contexts and
// join counters allocated on the stack, as in Figure 8 of the paper).
func (b *B) LocalAddr(d isa.Reg, i int) {
	b.checkLocal(i)
	b.emit(isa.Instr{Op: opLocalAddr, Rd: d, Imm: int64(i)})
}

func (b *B) checkLocal(i int) {
	if i < 0 || i >= b.numLocals {
		b.errs = append(b.errs, fmt.Errorf("asm: %s: local %d out of range (have %d)", b.name, i, b.numLocals))
	}
}

// SetArg places outgoing argument i for the next call (store [SP + i]).
func (b *B) SetArg(i int, src isa.Reg) {
	if i < 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: %s: negative outgoing arg index", b.name))
	}
	b.Store(isa.SP, int64(i), src)
}

// Call calls the named procedure or builtin; the target symbol is resolved
// at link time. The return value, if any, arrives in RV.
func (b *B) Call(name string) {
	b.emit(isa.Instr{Op: isa.Call, Sym: name})
}

// Fork performs an asynchronous call (ASYNC_CALL): a plain call bracketed
// by the dummy fork-block procedures, exactly as the paper's macro expands.
func (b *B) Fork(name string) {
	b.emit(isa.Instr{Op: isa.Call, Sym: isa.ForkBlockBegin})
	b.emit(isa.Instr{Op: isa.Call, Sym: name})
	b.emit(isa.Instr{Op: isa.Call, Sym: isa.ForkBlockEnd})
}

// Poll emits a steal-request poll point. Under the calling standard a poll
// point is a call: the thread may be suspended there and later restarted,
// and a suspend/restart restores only the callee-save registers R0..R7, so
// every caller-save register (T0..T7) is dead across it. A value live across
// a poll must sit in R0..R7 or in the frame.
func (b *B) Poll() { b.emit(isa.Instr{Op: isa.Poll}) }

// Nop emits a no-op (also used by workload generators as filler compute).
func (b *B) Nop() { b.emit(isa.Instr{Op: isa.Nop}) }

// Jmp jumps unconditionally to l.
func (b *B) Jmp(l Lbl) { b.branch(isa.Jmp, 0, 0, l) }

// Conditional branches comparing a against r.
func (b *B) Beq(a, r isa.Reg, l Lbl) { b.branch(isa.Beq, a, r, l) }
func (b *B) Bne(a, r isa.Reg, l Lbl) { b.branch(isa.Bne, a, r, l) }
func (b *B) Blt(a, r isa.Reg, l Lbl) { b.branch(isa.Blt, a, r, l) }
func (b *B) Ble(a, r isa.Reg, l Lbl) { b.branch(isa.Ble, a, r, l) }
func (b *B) Bgt(a, r isa.Reg, l Lbl) { b.branch(isa.Bgt, a, r, l) }
func (b *B) Bge(a, r isa.Reg, l Lbl) { b.branch(isa.Bge, a, r, l) }

// BeqI branches when a equals the immediate (via T7 scratch).
func (b *B) BeqI(a isa.Reg, imm int64, l Lbl) {
	b.Const(isa.T7, imm)
	b.Beq(a, isa.T7, l)
}

// BneI branches when a differs from the immediate (via T7 scratch).
func (b *B) BneI(a isa.Reg, imm int64, l Lbl) {
	b.Const(isa.T7, imm)
	b.Bne(a, isa.T7, l)
}

// BgtI branches when a exceeds the immediate (via T7 scratch).
func (b *B) BgtI(a isa.Reg, imm int64, l Lbl) {
	b.Const(isa.T7, imm)
	b.Bgt(a, isa.T7, l)
}

// BleI branches when a is at most the immediate (via T7 scratch).
func (b *B) BleI(a isa.Reg, imm int64, l Lbl) {
	b.Const(isa.T7, imm)
	b.Ble(a, isa.T7, l)
}

// BltI branches when a is less than the immediate (via T7 scratch).
func (b *B) BltI(a isa.Reg, imm int64, l Lbl) {
	b.Const(isa.T7, imm)
	b.Blt(a, isa.T7, l)
}

// BgeI branches when a is at least the immediate (via T7 scratch).
func (b *B) BgeI(a isa.Reg, imm int64, l Lbl) {
	b.Const(isa.T7, imm)
	b.Bge(a, isa.T7, l)
}

// Ret returns r (moved into RV) through the procedure's single epilogue.
func (b *B) Ret(r isa.Reg) {
	if r != isa.RV {
		b.Mov(isa.RV, r)
	}
	b.Jmp(b.retLbl)
}

// RetVoid returns without setting RV.
func (b *B) RetVoid() { b.Jmp(b.retLbl) }
