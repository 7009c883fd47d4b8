package machine

import "repro/internal/isa"

// This file builds the interpreter's flat decode cache: one entry per pc,
// resolved once at machine.New time, so the per-instruction loop never
// performs a descriptor search, a cost-table fetch or an options check on
// the hot path. The cache also carries the straight-line batching metadata
// behind the interpreter's fast path (see interp.go): for every pc, the
// length and exact cycle cost of the maximal run of straightline
// instructions starting there.
//
// The cache is immutable after New — the program, the cost model and every
// option that feeds it (RegWindows, OmitFP, CilkCost) are fixed at
// construction — which makes it trivially speculation-safe: speculative
// quanta (spec.go) read it exactly like non-speculative execution, and
// capture/restore/abort never touch it.

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
	// runLen is the number of straightline instructions in the maximal
	// batchable run starting at this pc (zero when the instruction itself
	// is not straightline); runCost is the run's total cycle cost and
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

// buildDecode populates m.dec from the linked program. Called once by New,
// after descAt/isForkPC/isCheckPC and augRefund are in place.
func (m *Machine) buildDecode() {
	code := m.Prog.Code
	cost := &m.Cost.OpCost
	m.dec = make([]decoded, len(code))
	for pc := range code {
		in := &code[pc]
		d := &m.dec[pc]
		d.op, d.rd, d.ra, d.rb, d.imm = in.Op, in.Rd, in.Ra, in.Rb, in.Imm
		if int(in.Op) < isa.NumOps {
			d.cost = int32(cost[in.Op])
		}
		d.isCheck = m.isCheckPC[pc]
		if in.Op != isa.Call {
			continue
		}
		if b, ok := isa.BuiltinFromTarget(in.Imm); ok {
			d.builtin = uint8(b)
			continue
		}
		if in.Imm < 0 || in.Imm >= int64(len(code)) || m.descAt[in.Imm] == nil {
			continue // malformed target: the interpreter faults on execution
		}
		t := m.descAt[in.Imm]
		d.callDesc = t
		// Code-generation cost settings (Figures 17-20): register windows
		// make prologue saves and epilogue restores free; omitted frame
		// pointers shorten both by a fixed amount; Cilk cost mode charges
		// explicit-frame spawn maintenance at fork points and refunds the
		// epilogue free check Cilk-generated code does not contain.
		if m.Opts.RegWindows && m.Cost.RegWindowSave {
			d.callAdjust -= int32(int64(len(t.SavedRegs)+2) * (cost[isa.Store] + cost[isa.Load]))
		}
		if m.Opts.OmitFP && m.Cost.OmitFPRefund > 0 {
			d.callAdjust -= int32(m.Cost.OmitFPRefund)
		}
		if m.Opts.CilkCost {
			if m.isForkPC[pc] {
				d.callAdjust += int32(m.Cost.CilkSpawnCost)
			}
			if t.Augmented {
				d.callAdjust -= int32(m.augRefund)
			}
		}
	}
	// Backward pass: straight-line run lengths and exact suffix costs. A run
	// starting at pc extends the run starting at pc+1, so every entry is
	// computed in O(1) from its successor.
	var nextLen int32
	for pc := len(code) - 1; pc >= 0; pc-- {
		d := &m.dec[pc]
		if !d.op.Straightline() {
			nextLen = 0
			continue
		}
		d.runCheckCost = m.checkCost(d)
		if nextLen == 0 {
			d.runLen, d.runCost, d.runCostButLast = 1, d.cost, 0
		} else {
			next := &m.dec[pc+1]
			d.runLen = nextLen + 1
			d.runCost = d.cost + next.runCost
			d.runCostButLast = d.cost + next.runCostButLast
			d.runCheckCost += next.runCheckCost
		}
		nextLen = d.runLen
	}
}

// checkCost is the cycles the observability layer attributes to
// PhaseEpilogue when d executes: its cost if it belongs to an augmented
// epilogue's free check, and nothing in Cilk cost mode (see obsTick).
func (m *Machine) checkCost(d *decoded) int32 {
	if d.isCheck && !m.Opts.CilkCost {
		return d.cost
	}
	return 0
}
