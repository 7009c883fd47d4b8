// Package isa defines the instruction set, register file, procedure and
// program representations, and runtime descriptor tables of the simulated
// machine.
//
// The machine obeys a conventional calling standard (Section 3 of the
// paper): each non-leaf procedure keeps a separate frame pointer FP aside
// from the stack pointer SP, links its frame to its parent by saving the
// caller's FP in a fixed frame slot, and passes arguments through
// SP-relative stores. Stacks grow toward lower addresses.
//
// Frame layout for a procedure with S used callee-save registers, L locals
// and an outgoing-arguments region of A words (FP is the frame base; the
// callee's FP equals the caller's SP at call time):
//
//	mem[FP + i]          incoming argument i (in the caller's frame)
//	mem[FP - 1]          return address
//	mem[FP - 2]          saved parent FP
//	mem[FP - 2 - k]      saved callee-save register k (k = 1..S)
//	mem[FP - 2 - S - j]  local j (j = 1..L)
//	mem[SP + i]          outgoing argument i, SP = FP - FrameSize
//	FrameSize = 2 + S + L + A
package isa

import (
	"fmt"
	"sync"
)

// Reg names a machine register.
type Reg uint8

// Register file. R0..R7 are callee-save, T0..T7 caller-save scratch. LR
// holds the return address around a call. WL is the reserved worker-local
// storage base register (the "TLS register" of Section 7); the postprocessed
// epilogue reads the exported-set bound through it. RV carries return values.
const (
	SP Reg = iota
	FP
	LR
	RV
	WL
	R0
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	T0
	T1
	T2
	T3
	T4
	T5
	T6
	T7
	NumRegs
)

// NumCalleeSave is the number of callee-save general registers (R0..R7).
const NumCalleeSave = 8

// CalleeSave reports whether r must be preserved across calls.
func CalleeSave(r Reg) bool { return r >= R0 && r <= R7 }

var regNames = [...]string{
	"sp", "fp", "lr", "rv", "wl",
	"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. Loads and stores address memory as base register + immediate
// word offset. Branches compare Ra against Rb and jump to the absolute
// target in Imm. Call transfers to the absolute entry in Imm after setting
// LR; negative call targets name builtins handled by the runtime.
const (
	Nop Op = iota
	Const
	Mov
	Add
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
	AddI
	MulI
	Load
	Store
	// Tas atomically loads mem[Ra+Imm] into Rd and stores 1 — the
	// test-and-set primitive behind inline spinlocks.
	Tas
	Jmp
	JmpReg
	Beq
	Bne
	Blt
	Ble
	Bgt
	Bge
	Call
	Poll
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	FCmp // Rd <- -1/0/1 comparing Ra, Rb as float64 bits
	ItoF
	FtoI
	numOps
)

var opNames = [...]string{
	"nop", "const", "mov", "add", "sub", "mul", "div", "mod", "and", "or",
	"xor", "shl", "shr", "addi", "muli", "load", "store", "tas", "jmp", "jmpreg",
	"beq", "bne", "blt", "ble", "bgt", "bge", "call", "poll",
	"fadd", "fsub", "fmul", "fdiv", "fneg", "fcmp", "itof", "ftoi",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Straightline reports whether o always falls through to pc+1 without
// touching the runtime: executing it can at most update registers or memory,
// or trap. A batched run of the interpreter's fast path is a sequence of
// straightline instructions, optionally ended by one Branch. Calls and poll
// points are neither, and neither is an undefined opcode (the
// per-instruction path owns the illegal-opcode trap).
func (o Op) Straightline() bool {
	switch o {
	case Jmp, JmpReg, Beq, Bne, Blt, Ble, Bgt, Bge, Call, Poll:
		return false
	}
	return o < numOps
}

// Branch reports whether o is a control transfer that never reaches the
// runtime: a jump, an indirect jump or a conditional branch. It only picks
// the next pc, so it may end a batched run; the successor run starts at the
// pc it picks.
func (o Op) Branch() bool {
	switch o {
	case Jmp, JmpReg, Beq, Bne, Blt, Ble, Bgt, Bge:
		return true
	}
	return false
}

// CanTrap reports whether o can raise a simulated fault mid-execution: a
// division or modulo by zero, or an out-of-range memory access. The batched
// interpreter syncs architectural state before each such instruction so a
// fault surfaces with exactly the per-instruction path's machine state.
func (o Op) CanTrap() bool {
	switch o {
	case Div, Mod, Load, Store, Tas:
		return true
	}
	return false
}

// Instr is one machine instruction. Semantics by opcode:
//
//	Const  Rd <- Imm
//	Mov    Rd <- Ra
//	Add..  Rd <- Ra op Rb            (Div/Mod trap on zero Rb)
//	AddI   Rd <- Ra + Imm
//	MulI   Rd <- Ra * Imm
//	Load   Rd <- mem[Ra + Imm]
//	Store  mem[Ra + Imm] <- Rb
//	Jmp    pc <- Imm
//	JmpReg pc <- Ra
//	Bxx    if Ra xx Rb then pc <- Imm
//	Call   LR <- pc+1; pc <- Imm     (Imm < 0: builtin)
//	Poll   runtime steal-request poll point
//	F*     float64 arithmetic over raw bits
type Instr struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int64
	// Sym names an unresolved call target or branch label before assembly
	// and linking; it is empty in executable code.
	Sym string
}

func (i Instr) String() string {
	switch i.Op {
	case Nop, Poll:
		return i.Op.String()
	case Const:
		return fmt.Sprintf("const %s, %d", i.Rd, i.Imm)
	case Mov, FNeg, ItoF, FtoI, JmpReg:
		if i.Op == JmpReg {
			return fmt.Sprintf("jmpreg %s", i.Ra)
		}
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Ra)
	case AddI, MulI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Ra, i.Imm)
	case Load:
		return fmt.Sprintf("load %s, [%s%+d]", i.Rd, i.Ra, i.Imm)
	case Store:
		return fmt.Sprintf("store [%s%+d], %s", i.Ra, i.Imm, i.Rb)
	case Jmp:
		return fmt.Sprintf("jmp %d%s", i.Imm, symSuffix(i.Sym))
	case Beq, Bne, Blt, Ble, Bgt, Bge:
		return fmt.Sprintf("%s %s, %s, %d%s", i.Op, i.Ra, i.Rb, i.Imm, symSuffix(i.Sym))
	case Call:
		return fmt.Sprintf("call %d%s", i.Imm, symSuffix(i.Sym))
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Ra, i.Rb)
	}
}

func symSuffix(s string) string {
	if s == "" {
		return ""
	}
	return " <" + s + ">"
}

// Pseudo-procedure names that bracket a fork call site (Figure 4 of the
// paper). The postprocessor recognizes and removes calls to them, recording
// the bracketed call instruction as a fork point.
const (
	ForkBlockBegin = "__st_fork_block_begin"
	ForkBlockEnd   = "__st_fork_block_end"
)

// Proc is one assembled procedure: a self-contained code slice with
// proc-relative branch targets and symbolic call targets.
type Proc struct {
	Name      string
	NumArgs   int
	NumLocals int
	// SavedRegs lists the callee-save registers the body uses, in save
	// order; the assembler computes it from the body.
	SavedRegs []Reg
	// MaxArgsOut is the compiler-computed outgoing-arguments region size
	// (the maximum argument count over all calls in the body).
	MaxArgsOut int
	// FrameSize is 2 + len(SavedRegs) + NumLocals + MaxArgsOut.
	FrameSize int
	// Code holds the full body including the prologue and the (single)
	// epilogue emitted by the assembler. Branch targets are proc-relative.
	Code []Instr
	// EpilogueEntry is the proc-relative pc of the epilogue sequence. The
	// assembler records it for testing; the postprocessor does not consume
	// it — it locates the epilogue by scanning for the return pattern, like
	// the real assembly postprocessor.
	EpilogueEntry int
	// Leaf reports whether the body contains no Call instructions (after
	// ignoring fork brackets). Computed by the assembler.
	Leaf bool
}

// Clone returns a deep copy of p (code slice included) so the postprocessor
// can rewrite procedures without aliasing the input program.
func (p *Proc) Clone() *Proc {
	q := *p
	q.SavedRegs = append([]Reg(nil), p.SavedRegs...)
	q.Code = append([]Instr(nil), p.Code...)
	return &q
}

// Desc is the runtime descriptor the postprocessor attaches to each
// procedure (Section 3.3): everything the runtime needs to virtually unwind
// or patch one of its frames.
type Desc struct {
	Name string
	// Entry and End delimit the procedure in the linked global code array:
	// [Entry, End). The runtime locates a frame's descriptor by binary
	// search with any pc inside the procedure.
	Entry, End int64
	// RetAddrOff and ParentFPOff are the FP-relative offsets of the return
	// address and saved parent FP slots (always -1 and -2 under this
	// calling standard, but carried in the descriptor as the paper does).
	RetAddrOff, ParentFPOff int64
	// BodyStart and EpilogueStart delimit the procedure body proper:
	// before BodyStart the prologue has not finished forming the frame,
	// and from EpilogueStart on it is being torn down. Between them the
	// frame is fully formed — thief-side stack walks require it.
	BodyStart, EpilogueStart int64
	// PureEpilogue is the global pc of the pure epilogue replica: it
	// restores FP and the callee-save registers the procedure saved, leaves
	// SP untouched, performs nothing else, and ends in JmpReg LR.
	PureEpilogue int64
	// MaxSPStore is the maximum SP-relative store offset observed in the
	// body plus one, i.e. the size of the arguments region the procedure
	// assumes is always accessible (Invariant 2 bookkeeping).
	MaxSPStore int64
	// ForkPoints holds the global pcs of Call instructions marked as forks.
	ForkPoints []int64
	// SavedRegs mirrors Proc.SavedRegs for the runtime's register surgery.
	SavedRegs []Reg
	// FrameSize is the frame size in words (distance from FP down to the
	// procedure's own SP).
	FrameSize int64
	// Augmented reports whether the postprocessor rewrote the epilogue with
	// the exported-set free check.
	Augmented bool
	// CheckEntry is the global pc of the augmented epilogue tail (the first
	// instruction of the free check) when Augmented; -1 otherwise. The
	// observability layer uses it to attribute the per-return check cost.
	CheckEntry int64
}

// IsFork reports whether the call instruction at global pc is a fork point
// of this procedure.
func (d *Desc) IsFork(pc int64) bool {
	for _, f := range d.ForkPoints {
		if f == pc {
			return true
		}
	}
	return false
}

// Program is a linked executable: the concatenated code of all procedures
// plus the descriptor table collected at link time.
type Program struct {
	Code []Instr
	// Descs is sorted by Entry; DescFor performs the address-keyed lookup.
	Descs []*Desc
	// EntryOf maps procedure names to entry pcs.
	EntryOf map[string]int64
	// MaxArgsOut is the largest arguments region over all procedures; the
	// runtime extends the physical stack top by this amount to maintain
	// Invariant 2.
	MaxArgsOut int64

	// derived memoizes tables other packages compute from the program (see
	// Derive). It lives exactly as long as the program, so nothing outside
	// pins a program to keep its tables.
	derivedMu sync.Mutex
	derived   []derivation
}

// derivation is one memoized Derive result.
type derivation struct{ key, val any }

// Derive returns the value memoized on p under key, calling build to make it
// on the first request. Concurrent first requests build once: the others
// wait for that build. The value is shared by every caller, so it must be
// treated as read-only, and the program must not change once linked, or
// the value goes stale. Keys of distinct types never match, so a package
// keeps its entries apart by keying them with a type of its own; a program
// holds few entries, one per distinct key.
func Derive[K comparable, V any](p *Program, key K, build func() V) V {
	p.derivedMu.Lock()
	defer p.derivedMu.Unlock()
	for _, d := range p.derived {
		if k, ok := d.key.(K); ok && k == key {
			return d.val.(V)
		}
	}
	v := build()
	p.derived = append(p.derived, derivation{key, v})
	return v
}

// DescFor returns the descriptor of the procedure containing pc, or nil.
// This is the link-time table search of Section 3.3: any address within the
// procedure works as the key.
func (p *Program) DescFor(pc int64) *Desc {
	if i := p.DescIndex(pc); i >= 0 {
		return p.Descs[i]
	}
	return nil
}

// DescIndex is DescFor returning the descriptor's index in Descs, or -1.
func (p *Program) DescIndex(pc int64) int {
	lo, hi := 0, len(p.Descs)
	for lo < hi {
		mid := (lo + hi) / 2
		d := p.Descs[mid]
		switch {
		case pc < d.Entry:
			hi = mid
		case pc >= d.End:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Builtin identifies a runtime service callable through Call with a
// negative target. BuiltinTarget encodes the id; the machine decodes it.
type Builtin int64

// Builtin services. Suspend and Restart are the paper's core primitives
// (Section 3.4); the rest model the C library and math routines the
// benchmark programs need. The Locked* variants model the thread-safe
// library redirection measured in the "+thread" settings of Figures 17-20.
const (
	BSuspend Builtin = iota + 1
	// BSuspendU is suspend with a lock handoff: after the context has been
	// fully written and the frames detached, it clears the given lock word.
	// Synchronization libraries need it to close the publish-then-suspend
	// race the paper alludes to ("a mechanism that postpones the scheduling
	// of the resumed context may be necessary", Figure 8).
	BSuspendU
	BRestart
	// BResume implements the LTC resume policy (Figure 12): the context
	// enters the tail of the calling worker's ready queue instead of being
	// restarted in place.
	BResume
	BAlloc
	BPrintInt
	BPrintFloat
	BLock
	BUnlock
	BRand
	BSin
	BCos
	BSqrt
	BWorkerID
	BNumWorkers
	BMemCopy
	BMemSet
	BLibCall       // generic plain library call (constant cost)
	BLockedLibCall // thread-safe variant: adds lock/unlock cost
	// BShrink runs the worker's shrink operation (Section 5.2) explicitly;
	// the runtime also shrinks on its own at scheduling points.
	BShrink
	BHalt
	// BCanary stamps a canary word: mem[arg0] <- arg1, and when a canary
	// map is installed (adversarial harness) registers the word as retained
	// state of the calling frame so the caller-integrity / confidentiality
	// audit rules can watch it. arg2 carries flag bits (1 = private).
	// Without a canary map it degenerates to a plain store.
	BCanary
	// BCanaryRetire validates and deregisters a canary: the calling frame
	// asserts mem[arg0] still equals arg1 before releasing the word. A
	// mismatch is queued as a caller-integrity violation, not a trap, so
	// the auditor attributes it.
	BCanaryRetire
	NumBuiltins
)

var builtinNames = map[Builtin]string{
	BSuspend: "suspend", BSuspendU: "suspend_u", BRestart: "restart",
	BResume: "resume", BAlloc: "alloc",
	BPrintInt: "print_int", BPrintFloat: "print_float",
	BLock: "lock", BUnlock: "unlock", BRand: "rand",
	BSin: "sin", BCos: "cos", BSqrt: "sqrt",
	BWorkerID: "worker_id", BNumWorkers: "num_workers",
	BMemCopy: "memcpy", BMemSet: "memset",
	BLibCall: "libcall", BLockedLibCall: "locked_libcall",
	BShrink: "shrink", BHalt: "halt",
	BCanary: "canary", BCanaryRetire: "canary_retire",
}

func (b Builtin) String() string {
	if s, ok := builtinNames[b]; ok {
		return s
	}
	return fmt.Sprintf("builtin(%d)", int64(b))
}

// BuiltinTarget encodes builtin b as a Call immediate.
func BuiltinTarget(b Builtin) int64 { return -int64(b) }

// BuiltinFromTarget decodes a negative Call immediate; ok is false for
// ordinary targets.
func BuiltinFromTarget(imm int64) (Builtin, bool) {
	if imm >= 0 {
		return 0, false
	}
	b := Builtin(-imm)
	if b <= 0 || b >= NumBuiltins {
		return 0, false
	}
	return b, true
}

// BuiltinByName resolves the symbolic name used in assembler programs.
func BuiltinByName(name string) (Builtin, bool) {
	for b, n := range builtinNames {
		if n == name {
			return b, true
		}
	}
	return 0, false
}
