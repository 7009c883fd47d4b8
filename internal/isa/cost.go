package isa

// CostModel assigns virtual cycle costs to instructions and runtime
// services for one modelled CPU. The four models mirror the machines of the
// paper's evaluation (Figures 17-20): SPARC 167MHz, Pentium PRO 200MHz,
// Mips R10000 175MHz, and Alpha 21164 400MHz. Absolute values are not
// calibrated to the originals — the experiments compare *relative* costs
// under different code-generation settings, which is what the figures show.
type CostModel struct {
	Name string
	// OpCost is the base cycle cost per executed instruction, by opcode.
	OpCost [NumOps]int64
	// BuiltinCost charges runtime services (the suspend/restart entry cost
	// itself; unwinding executes real pure-epilogue instructions on top).
	BuiltinCost map[Builtin]int64
	// RegWindowSave, when true, models SPARC register windows in the
	// "default" (non-flat) setting: the dynamic cost of prologue
	// callee-save stores and epilogue restores is refunded, since windowed
	// calls spill lazily. The flat setting clears it.
	RegWindowSave bool
	// OmitFPRefund, when positive, refunds that many cycles per dynamic
	// call in settings where fixed-frame procedures omit the frame pointer
	// (Mips/Alpha "default"); forcing FP (the "fp" setting) clears it.
	OmitFPRefund int64
	// LockedLibExtra is the additional cost of a thread-safe library call
	// over the plain one (lock + unlock + indirection).
	LockedLibExtra int64
	// StealHandshake is the one-way latency in cycles of posting or
	// answering a steal request between workers.
	StealHandshake int64
	// CilkSpawnCost and CilkSyncCost model Cilk-5's per-spawn explicit
	// frame maintenance (heap frame init, deque push/pop, THE fence) and
	// per-sync check, which StackThreads does not pay (it pays per-return
	// epilogue checks and per-steal unwinding instead).
	CilkSpawnCost int64
	CilkSyncCost  int64
	// CilkStealCost is the thief-side cost of one successful Cilk steal
	// (THE protocol lock + slow-clone re-entry).
	CilkStealCost int64
}

func baseOpCost(load, store, mul, div, fdiv, call int64) [NumOps]int64 {
	var c [NumOps]int64
	for op := 0; op < NumOps; op++ {
		c[op] = 1
	}
	c[Nop] = 0
	c[Load] = load
	c[Store] = store
	c[Tas] = load + store // atomic read-modify-write
	c[Mul] = mul
	c[MulI] = mul
	c[Div] = div
	c[Mod] = div
	c[FMul] = mul
	c[FDiv] = fdiv
	c[Call] = call
	c[JmpReg] = call // returns pay indirect-jump cost
	c[Poll] = 1      // Feeley's balanced polling: ~1 cycle amortized
	return c
}

func baseBuiltinCost() map[Builtin]int64 {
	return map[Builtin]int64{
		BSuspend: 20, BSuspendU: 24, BRestart: 24, BResume: 10, BAlloc: 30,
		BPrintInt: 40, BPrintFloat: 60,
		BLock: 2, BUnlock: 1, BRand: 12,
		BSin: 40, BCos: 40, BSqrt: 20,
		BWorkerID: 2, BNumWorkers: 2,
		BMemCopy: 4, BMemSet: 3, // plus per-word cost charged by the machine
		BLibCall: 25, BLockedLibCall: 25, BShrink: 8, BHalt: 1,
		BCanary: 4, BCanaryRetire: 4,
	}
}

// CPU model constructors. Each model tweaks the knobs that drive the
// per-setting deltas of Figures 17-20: SPARC has register windows (so the
// flat setting is expensive), Mips and Alpha omit FP by default (so forcing
// FP costs) and have expensive thread-safe libraries, Pentium PRO has
// neither penalty.

// SPARC returns the 167MHz UltraSPARC cost model of Figure 17.
func SPARC() *CostModel {
	return &CostModel{
		Name:           "sparc",
		OpCost:         baseOpCost(2, 1, 4, 18, 22, 2),
		BuiltinCost:    baseBuiltinCost(),
		RegWindowSave:  true,
		LockedLibExtra: 12,
		StealHandshake: 48,
		CilkSpawnCost:  14, CilkSyncCost: 5, CilkStealCost: 300,
	}
}

// X86 returns the Pentium PRO 200MHz cost model of Figure 18.
func X86() *CostModel {
	return &CostModel{
		Name:           "x86",
		OpCost:         baseOpCost(2, 1, 3, 20, 24, 2),
		BuiltinCost:    baseBuiltinCost(),
		LockedLibExtra: 14,
		StealHandshake: 48,
		CilkSpawnCost:  13, CilkSyncCost: 5, CilkStealCost: 290,
	}
}

// MIPS returns the Mips R10000 175MHz cost model of Figure 19.
func MIPS() *CostModel {
	return &CostModel{
		Name:           "mips",
		OpCost:         baseOpCost(2, 1, 4, 20, 24, 1),
		BuiltinCost:    baseBuiltinCost(),
		OmitFPRefund:   2,
		LockedLibExtra: 60,
		StealHandshake: 44,
		CilkSpawnCost:  12, CilkSyncCost: 4, CilkStealCost: 280,
	}
}

// Alpha returns the Alpha 21164 400MHz cost model of Figure 20.
func Alpha() *CostModel {
	return &CostModel{
		Name:           "alpha",
		OpCost:         baseOpCost(2, 1, 4, 22, 26, 1),
		BuiltinCost:    baseBuiltinCost(),
		OmitFPRefund:   2,
		LockedLibExtra: 40,
		StealHandshake: 44,
		CilkSpawnCost:  12, CilkSyncCost: 4, CilkStealCost: 280,
	}
}

// CostModels returns all four models in figure order.
func CostModels() []*CostModel {
	return []*CostModel{SPARC(), X86(), MIPS(), Alpha()}
}

// CostModelByName returns a fresh copy of the named model, or nil. It
// builds only that model.
func CostModelByName(name string) *CostModel {
	switch name {
	case "sparc":
		return SPARC()
	case "x86":
		return X86()
	case "mips":
		return MIPS()
	case "alpha":
		return Alpha()
	}
	return nil
}
