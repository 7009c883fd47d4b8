package machine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/postproc"
)

// White-box tests for the interpreter's batched fast path (decode.go,
// interp.go): the batch must be observationally identical to per-instruction
// execution — same cycle counts at every budget boundary, same trap state,
// and full coherence with the speculation substrate's capture/restore/abort.

func compileUnit(t *testing.T, build func(u *asm.Unit)) *isa.Program {
	t.Helper()
	u := asm.NewUnit()
	build(u)
	procs, err := u.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func startWorker(t *testing.T, prog *isa.Program, opts Options) (*Machine, *Worker) {
	t.Helper()
	if opts.StackWords == 0 {
		opts.StackWords = 1 << 10
	}
	m := New(prog, mem.New(1<<10), isa.SPARC(), 1, opts)
	entry, ok := prog.EntryOf["main"]
	if !ok {
		t.Fatal("no main entry")
	}
	w := m.Workers[0]
	w.StartCall(entry, nil)
	return m, w
}

func sameWorker(a, b *Worker) bool {
	return a.PC == b.PC && a.Cycles == b.Cycles && a.Regs == b.Regs && a.Stats == b.Stats
}

func diffWorker(t *testing.T, where string, a, b *Worker) {
	t.Helper()
	if !sameWorker(a, b) {
		t.Fatalf("%s: state diverged:\n  a: pc=%d cycles=%d stats=%+v\n  b: pc=%d cycles=%d stats=%+v\n  a regs=%v\n  b regs=%v",
			where, a.PC, a.Cycles, a.Stats, b.PC, b.Cycles, b.Stats, a.Regs, b.Regs)
	}
}

// addMixProc emits mix(cell, i): a straight-line read-modify-write of one
// heap cell, returning the new value.
func addMixProc(u *asm.Unit) {
	h := u.Proc("mix", 2, 2)
	h.LoadArg(isa.T0, 0) // cell address
	h.LoadArg(isa.T1, 1) // i
	h.Load(isa.T2, isa.T0, 0)
	h.Add(isa.T2, isa.T2, isa.T1)
	h.MulI(isa.T3, isa.T2, 3)
	h.Xor(isa.T2, isa.T2, isa.T3)
	h.AddI(isa.T2, isa.T2, 17)
	h.Store(isa.T0, 0, isa.T2)
	h.Ret(isa.T2)
}

// mixProgram exercises every fast-path concern in one program: long
// straightline runs of ALU and memory traffic, calls (which end a run and
// carry a static cycle adjustment), polls, and branches, all mutating a
// shared heap cell.
func mixProgram(t *testing.T) *isa.Program {
	t.Helper()
	return compileUnit(t, func(u *asm.Unit) {
		addMixProc(u)

		b := u.Proc("main", 0, 2)
		b.Const(isa.R0, mem.Guard) // heap cell 0
		b.Const(isa.R1, 0)         // i
		b.Const(isa.R2, 123)       // iterations
		loop := b.NewLabel()
		b.Bind(loop)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.Call("mix")
		b.AddI(isa.R1, isa.R1, 1)
		b.Poll()
		b.Blt(isa.R1, isa.R2, loop)
		b.Load(isa.RV, isa.R0, 0)
		b.Ret(isa.RV)
	})
}

// lockProgram extends the mix with the remaining straight-line shapes: a
// tas spin-style lock probe inside a block (single-worker, so it always
// acquires), a const+branch pair, and a call inside the locked region.
func lockProgram(t *testing.T) *isa.Program {
	t.Helper()
	return compileUnit(t, func(u *asm.Unit) {
		addMixProc(u)

		b := u.Proc("main", 0, 2)
		b.Const(isa.R0, mem.Guard)   // heap cell 0: accumulator
		b.Const(isa.R3, mem.Guard+1) // heap cell 1: lock word
		b.Const(isa.R1, 0)           // i
		b.Const(isa.R2, 150)         // iterations
		loop := b.NewLabel()
		b.Bind(loop)
		b.Tas(isa.T4, isa.R3, 0) // single worker: always acquires
		b.Const(isa.T5, 0)
		b.Bne(isa.T4, isa.T5, loop) // const+branch pair, never taken
		b.Load(isa.T6, isa.R3, 0)   // the held lock word, as tas set it,
		b.Store(isa.R0, 2, isa.T6)  // kept in heap cell 2 for the memory diff
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.Call("mix")
		b.Const(isa.T5, 0)         // caller-save T5 is dead across the call
		b.Store(isa.R3, 0, isa.T5) // release the lock
		b.AddI(isa.R1, isa.R1, 1)
		b.Poll()
		b.Blt(isa.R1, isa.R2, loop)
		b.Load(isa.RV, isa.R0, 0)
		b.Ret(isa.RV)
	})
}

// canaryProgram runs the canary builtins inside a hot loop between
// straight-line blocks, so the batched tier must charge the identical
// builtin cost at the identical instruction.
func canaryProgram(t *testing.T) *isa.Program {
	t.Helper()
	return compileUnit(t, func(u *asm.Unit) {
		b := u.Proc("main", 0, 3)
		b.Const(isa.R0, mem.Guard+8) // canary word address
		b.Const(isa.R1, 0)           // i
		b.Const(isa.R2, 120)         // iterations
		loop := b.NewLabel()
		b.Bind(loop)
		b.Const(isa.T0, 0xC0DE)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.T0)
		b.SetArg(2, isa.R1)
		b.Call("canary")
		b.Add(isa.T1, isa.T1, isa.R1)
		b.MulI(isa.T1, isa.T1, 3)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.T0)
		b.Call("canary_retire")
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, loop)
		b.Ret(isa.T1)
	})
}

// TestFastPathMatchesSlowPath runs each program on two machines — fast path
// on vs NoFastPath — sliced into budgets from a single cycle up to long odd
// slices so EvBudget falls in the middle of straightline runs, with the poll
// signal raised periodically, and asserts the entire architectural state is
// identical at every slice boundary and memory is identical at halt.
func TestFastPathMatchesSlowPath(t *testing.T) {
	if got := isa.SPARC().BuiltinCost[isa.BCanary]; got != 4 {
		t.Fatalf("SPARC canary cost = %d, want 4", got)
	}
	if got := isa.SPARC().BuiltinCost[isa.BCanaryRetire]; got != 4 {
		t.Fatalf("SPARC canary_retire cost = %d, want 4", got)
	}
	progs := []struct {
		name string
		mk   func(*testing.T) *isa.Program
	}{
		{"mix", mixProgram},
		{"lock", lockProgram},
		{"canary", canaryProgram},
	}
	for _, p := range progs {
		for _, budget := range []int64{1, 2, 53, 97, 1000} {
			t.Run(fmt.Sprintf("%s/budget=%d", p.name, budget), func(t *testing.T) {
				prog := p.mk(t)
				mf, wf := startWorker(t, prog, Options{})
				ms, ws := startWorker(t, prog, Options{NoFastPath: true})

				for step := 0; ; step++ {
					if step > 2_000_000 {
						t.Fatal("runaway program")
					}
					signal := step%7 == 3
					wf.PollSignal, ws.PollSignal = signal, signal
					evF, evS := wf.Run(budget), ws.Run(budget)
					if evF != evS {
						t.Fatalf("step %d: events diverged: fast=%v slow=%v", step, evF, evS)
					}
					diffWorker(t, "slice boundary", wf, ws)
					switch evF {
					case EvBudget:
						continue
					case EvPoll:
						wf.PollSignal, ws.PollSignal = false, false
						continue
					case EvHalt:
						if f, s := mf.Mem.ExportState(), ms.Mem.ExportState(); !reflect.DeepEqual(f, s) {
							t.Fatalf("memory diverged: fast pages %v, slow pages %v", f.Index, s.Index)
						}
						if wf.Regs[isa.RV] == 0 {
							t.Fatal("program returned 0; the workload never ran")
						}
						return
					default:
						t.Fatalf("step %d: unexpected event %v (err=%v)", step, evF, wf.Err)
					}
				}
			})
		}
	}
}

// TestFastPathTrapStateExact asserts that a trap raised inside a batched run
// leaves the worker in exactly the per-instruction state: the faulting pc,
// the cycle count including the faulting instruction's charge, and the
// instruction count including the faulting instruction.
func TestFastPathTrapStateExact(t *testing.T) {
	cases := []struct {
		name  string
		build func(u *asm.Unit)
	}{
		{"store-below-guard", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.T0, 3) // below mem.Guard
			b.AddI(isa.T1, isa.T1, 7)
			b.MulI(isa.T1, isa.T1, 9)
			b.Store(isa.T0, 0, isa.T1)
			b.Ret(isa.T1)
		}},
		{"load-out-of-range", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.T0, 1<<40)
			b.AddI(isa.T1, isa.T1, 1)
			b.Load(isa.T2, isa.T0, 0)
			b.Ret(isa.T2)
		}},
		{"div-by-zero", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.T0, 41)
			b.Const(isa.T1, 0)
			b.AddI(isa.T0, isa.T0, 1)
			b.Div(isa.T2, isa.T0, isa.T1)
			b.Ret(isa.T2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileUnit(t, tc.build)
			_, wf := startWorker(t, prog, Options{})
			_, ws := startWorker(t, prog, Options{NoFastPath: true})
			evF, evS := wf.Run(math.MaxInt64), ws.Run(math.MaxInt64)
			if evF != EvTrap || evS != EvTrap {
				t.Fatalf("events: fast=%v slow=%v, want both EvTrap", evF, evS)
			}
			diffWorker(t, "trap state", wf, ws)
			if wf.Err == nil || ws.Err == nil || wf.Err.Error() != ws.Err.Error() {
				t.Fatalf("errors diverged:\n  fast: %v\n  slow: %v", wf.Err, ws.Err)
			}
		})
	}
}

// TestSpeculationFastPathCoherence drives the decode cache through the
// speculation substrate: a chain segment (which batches through
// runBlockView against the chain's page view) must leave the exact launch
// state behind once the chain finishes, its commit must land the worker and
// shared memory in the same state as a direct batched run of the same
// budget, and a forbidden-operation abort must kill the chain and leave no
// trace.
func TestSpeculationFastPathCoherence(t *testing.T) {
	prog := compileUnit(t, func(u *asm.Unit) {
		b := u.Proc("main", 0, 2)
		b.Const(isa.R0, mem.Guard)
		b.Const(isa.R1, 0)
		b.Const(isa.R2, 400)
		loop := b.NewLabel()
		b.Bind(loop)
		b.Load(isa.T0, isa.R0, 0)
		b.Add(isa.T0, isa.T0, isa.R1)
		b.MulI(isa.T1, isa.T0, 5)
		b.Xor(isa.T0, isa.T0, isa.T1)
		b.Store(isa.R0, 0, isa.T0)
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, loop)
		b.Call("rand") // order-dependent: aborts any speculative quantum
		b.Load(isa.RV, isa.R0, 0)
		b.Ret(isa.RV)
	})

	mDirect, wDirect := startWorker(t, prog, Options{})
	mSpec, wSpec := startWorker(t, prog, Options{})
	var directPages []int64
	mDirect.SetStoreHook(func(a int64) {
		if p := a >> mem.PageShift; len(directPages) == 0 || directPages[len(directPages)-1] != p {
			directPages = append(directPages, p)
		}
	})
	shared := mSpec.Mem.ExportState()

	// 1. A successful segment leaves the launch state behind once the chain
	// finishes, and none of its stores reach shared memory.
	pre := wSpec.capture()
	c := wSpec.BeginChain()
	seg := c.RunSegment(300)
	if seg == nil {
		t.Fatal("RunSegment(300) aborted; the quantum contains no forbidden op")
	}
	if seg.Ev != EvBudget {
		t.Fatalf("quantum event %v, want EvBudget", seg.Ev)
	}
	if wSpec.BatchedCycles() == 0 {
		t.Fatal("the segment never entered the batched tier")
	}
	c.Finish()
	if wSpec.PC != pre.pc || wSpec.Cycles != pre.cycles || wSpec.Regs != pre.regs || wSpec.Stats != pre.stats {
		t.Fatalf("Finish did not restore the launch state: pc=%d/%d cycles=%d/%d",
			wSpec.PC, pre.pc, wSpec.Cycles, pre.cycles)
	}
	if !reflect.DeepEqual(mSpec.Mem.ExportState(), shared) {
		t.Fatalf("speculative stores leaked to shared memory: cell = %d", mSpec.Mem.Load(mem.Guard))
	}
	if len(seg.st.wlog) == 0 {
		t.Fatal("the segment logged no stores")
	}

	// 2. Committing the segment matches a direct (batched) run of the same
	// budget, including the flushed write log: shared memory must be equal
	// word for word, and the flush must report exactly the pages the direct
	// run stored to.
	var flushed []int64
	c.CommitSeg(seg, func(p int64) { flushed = append(flushed, p) })
	if ev := wDirect.Run(300); ev != EvBudget {
		t.Fatalf("direct run event %v, want EvBudget", ev)
	}
	diffWorker(t, "after commit", wSpec, wDirect)
	if !reflect.DeepEqual(mSpec.Mem.ExportState(), mDirect.Mem.ExportState()) {
		t.Fatalf("shared memory diverged after commit: spec cell=%d direct cell=%d",
			mSpec.Mem.Load(mem.Guard), mDirect.Mem.Load(mem.Guard))
	}
	if !slices.Equal(flushed, directPages) {
		t.Fatalf("flushed pages %v, direct run stored to pages %v", flushed, directPages)
	}
	mDirect.SetStoreHook(nil)

	// 3. A segment that reaches the forbidden builtin aborts, kills the
	// chain, and leaves the committed state untouched.
	committed := mSpec.Mem.ExportState()
	c = wSpec.BeginChain()
	if seg := c.RunSegment(math.MaxInt64); seg != nil {
		t.Fatalf("RunSegment over the rand call returned %+v, want abort", seg)
	}
	if seg := c.RunSegment(300); seg != nil {
		t.Fatal("a dead chain produced another segment")
	}
	c.Finish()
	diffWorker(t, "after abort", wSpec, wDirect)
	if !reflect.DeepEqual(mSpec.Mem.ExportState(), committed) {
		t.Fatal("an aborted segment changed shared memory")
	}

	// 4. Both machines finish identically.
	evS, evD := wSpec.Run(math.MaxInt64), wDirect.Run(math.MaxInt64)
	if evS != EvHalt || evD != EvHalt {
		t.Fatalf("final events: spec=%v direct=%v (errs %v / %v)", evS, evD, wSpec.Err, wDirect.Err)
	}
	diffWorker(t, "at halt", wSpec, wDirect)
	if wSpec.Regs[isa.RV] != wDirect.Regs[isa.RV] {
		t.Fatalf("return values diverged: %d vs %d", wSpec.Regs[isa.RV], wDirect.Regs[isa.RV])
	}
}

// TestFastPathDegenerateBudgets pins Run's behavior at the budget edges
// where the batch-entry comparison (deadline - runCostButLast) is most
// likely to be off by one: a zero budget must return EvBudget with no
// progress at all, a one-cycle budget must advance exactly like the
// reference path, and a budget that lands the deadline exactly on a
// straightline-run boundary must fire EvBudget on the identical
// instruction with or without batching.
func TestFastPathDegenerateBudgets(t *testing.T) {
	finish := func(t *testing.T, mf, ms *Machine, wf, ws *Worker, run func(step int) int64) {
		t.Helper()
		for step := 0; ; step++ {
			if step > 1_000_000 {
				t.Fatal("runaway program")
			}
			b := run(step)
			evF, evS := wf.Run(b), ws.Run(b)
			if evF != evS {
				t.Fatalf("step %d (budget %d): events diverged: fast=%v slow=%v", step, b, evF, evS)
			}
			diffWorker(t, "slice boundary", wf, ws)
			switch evF {
			case EvBudget, EvPoll:
				continue
			case EvHalt:
				if f, s := mf.Mem.ExportState(), ms.Mem.ExportState(); !reflect.DeepEqual(f, s) {
					t.Fatalf("memory diverged: fast pages %v, slow pages %v", f.Index, s.Index)
				}
				return
			default:
				t.Fatalf("step %d: unexpected event %v (err=%v)", step, evF, wf.Err)
			}
		}
	}

	t.Run("zero", func(t *testing.T) {
		prog := mixProgram(t)
		_, wf := startWorker(t, prog, Options{})
		_, ws := startWorker(t, prog, Options{NoFastPath: true})
		for i := 0; i < 3; i++ {
			pc, cycles, instrs := wf.PC, wf.Cycles, wf.Stats.Instrs
			evF, evS := wf.Run(0), ws.Run(0)
			if evF != EvBudget || evS != EvBudget {
				t.Fatalf("Run(0): events fast=%v slow=%v, want EvBudget", evF, evS)
			}
			if wf.PC != pc || wf.Cycles != cycles || wf.Stats.Instrs != instrs {
				t.Fatalf("Run(0) made progress: pc %d→%d cycles %d→%d", pc, wf.PC, cycles, wf.Cycles)
			}
			diffWorker(t, "after zero budget", wf, ws)
		}
	})

	t.Run("one", func(t *testing.T) {
		prog := mixProgram(t)
		mf, wf := startWorker(t, prog, Options{})
		ms, ws := startWorker(t, prog, Options{NoFastPath: true})
		finish(t, mf, ms, wf, ws, func(int) int64 { return 1 })
	})

	t.Run("batch-boundary", func(t *testing.T) {
		// At every slice, choose the budget from the *current* run's exact
		// suffix cost so the deadline lands exactly at the run boundary,
		// one cycle short of it, or one cycle past it in rotation.
		prog := mixProgram(t)
		mf, wf := startWorker(t, prog, Options{})
		ms, ws := startWorker(t, prog, Options{NoFastPath: true})
		finish(t, mf, ms, wf, ws, func(step int) int64 {
			b := int64(1)
			if pc := wf.PC; pc >= 0 && pc < int64(len(mf.dec)) && mf.dec[pc].runLen > 0 {
				b = int64(mf.dec[pc].runCost) + int64(step%3-1)
			}
			if b <= 0 {
				b = 1
			}
			return b
		})
	})
}

// TestDecodedLayout pins the decode-cache entry at 48 bytes, the size the
// decoded comment and DESIGN §14.1 promise: new metadata must fit the
// padding the byte-sized fields leave.
func TestDecodedLayout(t *testing.T) {
	if got := unsafe.Sizeof(decoded{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(decoded{}) = %d, want 48", got)
	}
}

// TestFastPathObsTrapInCheckBlock traps inside batched runs that contain
// augmented-epilogue check instructions, with observability attached in
// both cost modes. blockSync must attribute exactly the epilogue-check
// cycles the per-instruction path would have attributed up to and
// including the faulting instruction.
func TestFastPathObsTrapInCheckBlock(t *testing.T) {
	cases := []struct {
		name    string
		atCheck bool // the faulting instruction is itself a check
		build   func(u *asm.Unit)
	}{
		// The free check's own load faults: the epilogue run is the
		// callee-save restore plus the check load, which reads the
		// worker-local cell through a WL below mem.Guard.
		{"trap-on-check", true, func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.R5, 7) // a callee-save write: the epilogue restores it
			b.Const(isa.WL, 3)
			b.Ret(isa.R5)
		}},
		// The retain path's run is load-lr, const (check), store (check),
		// load-fp. With FP one word above mem.Guard the first three
		// succeed and the parent-FP load faults, after both checks.
		{"trap-after-check", false, func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.WL, mem.Guard) // "max E" reads the zero heap cell: retain
			b.Const(isa.FP, mem.Guard+1)
			b.Ret(isa.T0)
		}},
	}
	for _, tc := range cases {
		for _, cilk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cilk=%v", tc.name, cilk), func(t *testing.T) {
				u := asm.NewUnit()
				tc.build(u)
				procs, err := u.Build()
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				prog, err := postproc.Compile(procs, postproc.Options{Augment: true, ForceAugmentAll: true})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				mf, wf := startWorker(t, prog, Options{CilkCost: cilk, Obs: obs.New()})
				_, ws := startWorker(t, prog, Options{CilkCost: cilk, Obs: obs.New(), NoFastPath: true})
				evF, evS := wf.Run(math.MaxInt64), ws.Run(math.MaxInt64)
				if evF != EvTrap || evS != EvTrap {
					t.Fatalf("events: fast=%v slow=%v, want both EvTrap (errs %v / %v)", evF, evS, wf.Err, ws.Err)
				}
				diffWorker(t, "trap state", wf, ws)
				if wf.Err.Error() != ws.Err.Error() {
					t.Fatalf("errors diverged:\n  fast: %v\n  slow: %v", wf.Err, ws.Err)
				}
				if wf.BatchedCycles() == 0 {
					t.Fatal("the trap was not raised inside a batch")
				}
				if d := mf.dec[wf.PC]; d.runLen == 0 || d.isCheck != tc.atCheck {
					t.Fatalf("trap pc %d: straightline=%v check=%v, want a straightline pc with check=%v",
						wf.PC, d.runLen > 0, d.isCheck, tc.atCheck)
				}
				diffObs(t, "trap state", wf, ws)
				if epi := wf.Obs.Phase[obs.PhaseEpilogue]; (epi == 0) != cilk {
					t.Fatalf("epilogue-check cycles = %d in cilk=%v; the trap block's checks were not exercised", epi, cilk)
				}
			})
		}
	}
}

// diffObs fails the test unless two workers' attribution state and their
// collectors' profiles are identical.
func diffObs(t *testing.T, where string, a, b *Worker) {
	t.Helper()
	oa, ob := a.Obs, b.Obs
	if oa.Phase != ob.Phase || oa.AttributedTotal() != ob.AttributedTotal() ||
		oa.Samples != ob.Samples || oa.NextSample != ob.NextSample {
		t.Fatalf("%s: obs diverged:\n  a: phase=%v attributed=%d samples=%d next=%d\n  b: phase=%v attributed=%d samples=%d next=%d",
			where, oa.Phase, oa.AttributedTotal(), oa.Samples, oa.NextSample,
			ob.Phase, ob.AttributedTotal(), ob.Samples, ob.NextSample)
	}
	if pa, pb := a.M.Opts.Obs.Profile(), b.M.Opts.Obs.Profile(); !reflect.DeepEqual(pa, pb) {
		t.Fatalf("%s: profiles diverged:\n  a: %v\n  b: %v", where, pa, pb)
	}
}

// TestFastPathObsSampleBoundary pins the batch's sample-boundary gate at
// its edges: before every slice whose pc starts a straight-line run, both
// profilers' next sample is placed exactly at the run's end, one cycle
// before it, or one cycle after it, and the budget ends exactly at the run
// boundary. A run ending on the sample boundary must not be batched — the
// reference path samples its last instruction before EvBudget fires.
func TestFastPathObsSampleBoundary(t *testing.T) {
	prog := mixProgram(t)
	mf, wf := startWorker(t, prog, Options{Obs: obs.New()})
	_, ws := startWorker(t, prog, Options{Obs: obs.New(), NoFastPath: true})
	for step := 0; ; step++ {
		if step > 1_000_000 {
			t.Fatal("runaway program")
		}
		b := int64(97)
		if pc := wf.PC; pc >= 0 && pc < int64(len(mf.dec)) && mf.dec[pc].runLen > 1 {
			d := &mf.dec[pc]
			next := wf.Cycles + int64(d.runCost) + int64(step%3-1)
			wf.Obs.NextSample, ws.Obs.NextSample = next, next
			b = int64(d.runCost)
		}
		evF, evS := wf.Run(b), ws.Run(b)
		if evF != evS {
			t.Fatalf("step %d: events diverged: fast=%v slow=%v", step, evF, evS)
		}
		diffWorker(t, "slice boundary", wf, ws)
		diffObs(t, fmt.Sprintf("step %d", step), wf, ws)
		switch evF {
		case EvBudget, EvPoll:
			continue
		case EvHalt:
			if wf.BatchedCycles() == 0 || wf.Obs.Samples == 0 {
				t.Fatalf("batched %d cycles with %d samples; the edges were never exercised",
					wf.BatchedCycles(), wf.Obs.Samples)
			}
			return
		default:
			t.Fatalf("step %d: unexpected event %v (err=%v)", step, evF, wf.Err)
		}
	}
}
