package machine

import "repro/internal/isa"

// This file builds the interpreter's flat decode cache: one entry per pc,
// resolved before the first instruction runs, so the per-instruction loop
// never performs a descriptor search, a cost-table fetch or an options check
// on the hot path. The cache also carries the batching metadata behind the
// interpreter's fast path (see interp.go): for every pc, the length and
// exact cycle cost of the maximal run starting there — straightline
// instructions, optionally ended by one branch.
//
// The cache depends only on the program, the cost model's op costs and the
// options that change call costs (RegWindows, OmitFP, CilkCost), so it is
// built once per program and key (see imageFor) and shared by every machine
// of the program. Nothing writes to it after the build.

// decoded is one pre-resolved instruction of the decode cache. The struct is
// deliberately packed into 48 bytes so the cache stays dense in L1/L2; the
// 32-bit cost fields are safe because per-op costs are tiny and a run's
// total cost is bounded by program length times the largest op cost.
type decoded struct {
	imm int64
	// callDesc is the target's descriptor for an ordinary Call; nil for
	// builtins and malformed targets.
	callDesc *isa.Desc
	// cost is the instruction's base cycle cost under the machine's model.
	cost int32
	// callAdjust is the net static cycle adjustment a dynamic call at this
	// pc applies on top of the base Call cost: the register-window and
	// omitted-FP refunds and, in Cilk cost mode, the spawn charge and the
	// augmented-epilogue refund. All of it depends only on (pc, target,
	// options), so it collapses to one addition at run time.
	callAdjust int32
	// runLen is the number of instructions in the maximal batchable run
	// starting at this pc: straightline instructions, optionally ended by
	// one branch (isa.Op.Branch), which picks the pc the next run starts
	// at. It is zero when the instruction is neither (a call, a poll point
	// or an undefined opcode). runCost is the run's total cycle cost and
	// runCostButLast the same total minus the final instruction's cost —
	// the exact bound the fast path compares against the deadline so
	// EvBudget fires at the identical instruction either way. Within a run
	// these are suffix sums: entry pc+1 describes the same run's tail.
	runLen         int32
	runCost        int32
	runCostButLast int32
	// runCheckCost is the suffix sum of the run's epilogue-check costs —
	// the cycles the observability layer attributes to PhaseEpilogue when
	// the run executes as one batch. Zero in Cilk cost mode, where checks
	// are refunded per call and never attributed. It fits the padding the
	// byte-sized fields below leave, keeping the entry at 48 bytes.
	runCheckCost int32
	op           isa.Op
	rd, ra, rb   isa.Reg
	// builtin is the runtime service for a negative Call target (zero when
	// the call is ordinary).
	builtin uint8
	// isCheck marks instructions that exist only because of epilogue
	// augmentation; the observability layer attributes their cost to the
	// epilogue phase.
	isCheck bool
}

// imageKey is everything besides the program that the per-pc tables depend
// on: the op costs and the call adjustments the cost model and options
// select, each already combined with the option that enables it.
type imageKey struct {
	opCost [isa.NumOps]int64
	// regWindows is Options.RegWindows with CostModel.RegWindowSave.
	regWindows bool
	// omitFPRefund is CostModel.OmitFPRefund under Options.OmitFP, else 0.
	omitFPRefund int64
	cilkCost     bool
	// cilkSpawnCost is CostModel.CilkSpawnCost under CilkCost, else 0.
	cilkSpawnCost int64
}

// image is the per-pc tables of one program under one imageKey, shared by
// every machine of the program: built by the first machine that needs them
// and read-only after.
type image struct {
	// descAt maps every pc to its procedure descriptor (O(1) version of
	// Program.DescFor).
	descAt []*isa.Desc
	// dec is the decode cache (see decoded).
	dec []decoded
}

// newImageKey picks out of the cost model and options what the per-pc
// tables depend on.
func newImageKey(cost *isa.CostModel, opts *Options) imageKey {
	k := imageKey{opCost: cost.OpCost, cilkCost: opts.CilkCost}
	k.regWindows = opts.RegWindows && cost.RegWindowSave
	if opts.OmitFP && cost.OmitFPRefund > 0 {
		k.omitFPRefund = cost.OmitFPRefund
	}
	if opts.CilkCost {
		k.cilkSpawnCost = cost.CilkSpawnCost
	}
	return k
}

// imageFor returns the program's tables for the cost model and options,
// building them on the first request. They are memoized on the program
// itself, so they live exactly as long as it does.
func imageFor(prog *isa.Program, cost *isa.CostModel, opts *Options) *image {
	k := newImageKey(cost, opts)
	return isa.Derive(prog, k, func() *image { return buildImage(prog, &k) })
}

// buildImage derives the per-pc tables from the linked program.
func buildImage(prog *isa.Program, k *imageKey) *image {
	code := prog.Code
	img := &image{descAt: make([]*isa.Desc, len(code)), dec: make([]decoded, len(code))}
	// isForkPC marks the Call instructions that are fork points; isCheckPC
	// the instructions that exist only because of epilogue augmentation
	// (the free check and the retain path's frame-finished marking).
	isForkPC := make([]bool, len(code))
	isCheckPC := make([]bool, len(code))
	for _, d := range prog.Descs {
		for pc := d.Entry; pc < d.End; pc++ {
			img.descAt[pc] = d
		}
		for _, f := range d.ForkPoints {
			isForkPC[f] = true
		}
		if d.Augmented && d.CheckEntry > 0 {
			// The augmented tail's extra instructions over the original
			// epilogue: the three-instruction free check, plus the retain
			// path's finished-marking Const/Store (augmentedTail layout).
			for _, off := range []int64{0, 1, 2, 8, 9} {
				if pc := d.CheckEntry + off; pc < d.End {
					isCheckPC[pc] = true
				}
			}
		}
	}
	cost := &k.opCost
	// augRefund is the dynamic cost of the epilogue free check, refunded
	// per call in Cilk cost mode.
	augRefund := cost[isa.Load] + cost[isa.Bge] + cost[isa.Blt]
	for pc := range code {
		in := &code[pc]
		d := &img.dec[pc]
		d.op, d.rd, d.ra, d.rb, d.imm = in.Op, in.Rd, in.Ra, in.Rb, in.Imm
		if int(in.Op) < isa.NumOps {
			d.cost = int32(cost[in.Op])
		}
		d.isCheck = isCheckPC[pc]
		if in.Op != isa.Call {
			continue
		}
		if b, ok := isa.BuiltinFromTarget(in.Imm); ok {
			d.builtin = uint8(b)
			continue
		}
		if in.Imm < 0 || in.Imm >= int64(len(code)) || img.descAt[in.Imm] == nil {
			continue // malformed target: the interpreter faults on execution
		}
		t := img.descAt[in.Imm]
		d.callDesc = t
		// Code-generation cost settings (Figures 17-20): register windows
		// make prologue saves and epilogue restores free; omitted frame
		// pointers shorten both by a fixed amount; Cilk cost mode charges
		// explicit-frame spawn maintenance at fork points and refunds the
		// epilogue free check Cilk-generated code does not contain.
		if k.regWindows {
			d.callAdjust -= int32(int64(len(t.SavedRegs)+2) * (cost[isa.Store] + cost[isa.Load]))
		}
		d.callAdjust -= int32(k.omitFPRefund)
		if k.cilkCost {
			if isForkPC[pc] {
				d.callAdjust += int32(k.cilkSpawnCost)
			}
			if t.Augmented {
				d.callAdjust -= int32(augRefund)
			}
		}
	}
	// Backward pass: run lengths and exact suffix costs. A branch is a run
	// of length 1 that ends there; a straightline instruction extends the
	// run starting at pc+1, so every entry is computed in O(1) from its
	// successor.
	var nextLen int32
	for pc := len(code) - 1; pc >= 0; pc-- {
		d := &img.dec[pc]
		if d.op.Branch() {
			nextLen = 0
		} else if !d.op.Straightline() {
			nextLen = 0
			continue
		}
		d.runCheckCost = checkCost(d, k.cilkCost)
		if nextLen == 0 {
			d.runLen, d.runCost, d.runCostButLast = 1, d.cost, 0
		} else {
			next := &img.dec[pc+1]
			d.runLen = nextLen + 1
			d.runCost = d.cost + next.runCost
			d.runCostButLast = d.cost + next.runCostButLast
			d.runCheckCost += next.runCheckCost
		}
		nextLen = d.runLen
	}
	return img
}

// checkCost is the cycles the observability layer attributes to
// PhaseEpilogue when d executes: its cost if it belongs to an augmented
// epilogue's free check, and nothing in Cilk cost mode (see obsTick).
func checkCost(d *decoded, cilkCost bool) int32 {
	if d.isCheck && !cilkCost {
		return d.cost
	}
	return 0
}

// checkCost is checkCost under the machine's cost mode.
func (m *Machine) checkCost(d *decoded) int32 { return checkCost(d, m.Opts.CilkCost) }
