package machine_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/postproc"
)

// Section 5.3 describes two subtle cases of the stack management and the
// rules that handle them. These tests run the paper's exact scenarios as
// real programs — and then re-run them with the respective rule disabled to
// show it is load-bearing (the invariant checker or a trap must fire).

// buildRestartExportScenario builds the first 5.3 program:
//
//	main() { ASYNC_CALL(f()); g(); }
//	f()    { suspend(f_ctxt, 1); shrink(); *flagF = 1; }
//	g()    { restart(f_ctxt); *flagG = 1; }
//
// env[0..CtxWords) is the context; env[16] and env[17] are the flags.
// Returns flagF*10 + flagG.
func buildRestartExportScenario(t *testing.T) []*isa.Proc {
	t.Helper()
	u := asm.NewUnit()

	f := u.Proc("f", 1, 0)
	f.LoadArg(isa.R0, 0) // env
	f.SetArg(0, isa.R0)  // ctx at env[0]
	f.Const(isa.T0, 1)
	f.SetArg(1, isa.T0)
	f.Call("suspend")
	// resumed here by g's restart
	f.Call("shrink") // would reclaim g's frame were it not exported
	f.Const(isa.T0, 1)
	f.Store(isa.R0, 16, isa.T0)
	f.RetVoid()

	g := u.Proc("g", 1, 1)
	g.LoadArg(isa.R0, 0)
	g.StoreLocal(0, isa.R0) // a live frame-resident value shrink must not lose
	g.SetArg(0, isa.R0)
	g.Call("restart")
	// f's chain ran and finished; the invalid-frame thunk restored R0
	g.LoadLocal(isa.T1, 0)
	g.Const(isa.T0, 1)
	g.Store(isa.T1, 17, isa.T0)
	g.RetVoid()

	m := u.Proc("main", 1, 0)
	m.LoadArg(isa.R0, 0)
	m.SetArg(0, isa.R0)
	m.Fork("f") // f suspends immediately; main continues
	m.SetArg(0, isa.R0)
	m.Call("g")
	m.Load(isa.T0, isa.R0, 16)
	m.MulI(isa.T0, isa.T0, 10)
	m.Load(isa.T1, isa.R0, 17)
	m.Add(isa.RV, isa.T0, isa.T1)
	m.Ret(isa.RV)

	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func runScenario(t *testing.T, procs []*isa.Proc, popt postproc.Options, mopt machine.Options) (int64, error) {
	t.Helper()
	prog, err := postproc.Compile(procs, popt)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(64)
	env, err := mm.Alloc(18)
	if err != nil {
		t.Fatal(err)
	}
	if mopt.StackWords == 0 {
		mopt.StackWords = 1 << 12
	}
	m := machine.New(prog, mm, isa.SPARC(), 1, mopt)
	return runOn(m, "main", env)
}

func TestSubtleCaseRestartExportsCurrentFrame(t *testing.T) {
	procs := buildRestartExportScenario(t)
	rv, err := runScenario(t, procs,
		postproc.Options{Augment: true},
		machine.Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if rv != 11 {
		t.Fatalf("rv = %d, want 11 (both flags set)", rv)
	}
}

// TestSubtleCaseRestartExportInjectedFailure disables the export-on-restart
// rule: f's shrink then believes g's frame is free space and resets SP over
// it; the invariant checker must catch the corruption.
func TestSubtleCaseRestartExportInjectedFailure(t *testing.T) {
	procs := buildRestartExportScenario(t)
	_, err := runScenario(t, procs,
		postproc.Options{Augment: true},
		machine.Options{CheckInvariants: true, UnsafeNoRestartExport: true})
	if err == nil {
		t.Fatal("disabling the restart-export rule went unnoticed — the rule is not being exercised")
	}
	if !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("expected an invariant violation, got: %v", err)
	}
}

// buildNoReclaimAtMaxScenario builds the second 5.3 program:
//
//	main() { ASYNC_CALL(f()); restart(g_ctxt); h(1, ..., K); }
//	f()    { ASYNC_CALL(g()); }
//	g()    { suspend(g_ctxt, 2); }
//	h(...) { return sum of its K arguments; }
//
// When g finishes after the restart, its frame is both on the physical
// stack top and the maximum of the exported set. Were it reclaimed, SP
// would point at the top of f's unextended frame and main's argument
// writes for h would overwrite f's frame words.
func buildNoReclaimAtMaxScenario(t *testing.T) []*isa.Proc {
	t.Helper()
	const K = 6
	u := asm.NewUnit()

	g := u.Proc("g", 1, 0)
	g.LoadArg(isa.T0, 0)
	g.SetArg(0, isa.T0)
	g.Const(isa.T1, 2)
	g.SetArg(1, isa.T1)
	g.Call("suspend")
	g.RetVoid()

	f := u.Proc("f", 1, 1)
	f.LoadArg(isa.R0, 0)
	f.Const(isa.T0, 123)
	f.StoreLocal(0, isa.T0) // the frame word the bug would clobber
	f.SetArg(0, isa.R0)
	f.Fork("g")
	// g suspended itself and f; when f resumes it checks its local.
	f.LoadLocal(isa.RV, 0)
	f.RetVoid()

	h := u.Proc("h", K, 0)
	h.Const(isa.RV, 0)
	for i := 0; i < K; i++ {
		h.LoadArg(isa.T0, i)
		h.Add(isa.RV, isa.RV, isa.T0)
	}
	h.Ret(isa.RV)

	m := u.Proc("main", 1, 0)
	m.LoadArg(isa.R0, 0)
	m.SetArg(0, isa.R0)
	m.Fork("f") // g's suspend(·,2) unwinds g and f, reaching main
	m.SetArg(0, isa.R0)
	m.Call("restart") // g runs and finishes; f resumes, finishes
	// Pass many arguments: these SP-relative stores need the extended
	// arguments region the no-reclaim-at-max rule preserves.
	for i := 0; i < K; i++ {
		m.Const(isa.T0, int64(i+1))
		m.SetArg(i, isa.T0)
	}
	m.Call("h")
	m.Mov(isa.R1, isa.RV)
	// A shrink at the end gives the invariant checker a point to observe
	// any stack corruption the preceding writes caused.
	m.Call("shrink")
	m.Ret(isa.R1)

	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func TestSubtleCaseNoReclaimAtMax(t *testing.T) {
	procs := buildNoReclaimAtMaxScenario(t)
	rv, err := runScenario(t, procs,
		postproc.Options{Augment: true},
		machine.Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if rv != 21 { // 1+2+...+6
		t.Fatalf("rv = %d, want 21", rv)
	}
}

// TestSubtleCaseFreeAtMaxInjectedFailure compiles with the weakened free
// check (> instead of ≥): reclaiming the frame at max E must break
// Invariant 2.
func TestSubtleCaseFreeAtMaxInjectedFailure(t *testing.T) {
	procs := buildNoReclaimAtMaxScenario(t)
	_, err := runScenario(t, procs,
		postproc.Options{Augment: true, UnsafeFreeAtMax: true},
		machine.Options{CheckInvariants: true})
	if err == nil {
		t.Fatal("freeing the frame at max E went unnoticed — the rule is not being exercised")
	}
}

// TestUnaugmentedForkedProgramFails shows the augmentation itself is
// load-bearing: the same forked program compiled WITHOUT the epilogue
// checks frees suspended frames and corrupts the stack.
func TestUnaugmentedForkedProgramFails(t *testing.T) {
	procs := buildNoReclaimAtMaxScenario(t)
	rv, err := runScenario(t, procs,
		postproc.Options{Augment: false},
		machine.Options{CheckInvariants: true})
	if err == nil && rv == 21 {
		t.Fatal("forked program survived without augmented epilogues — checks are not load-bearing")
	}
}
