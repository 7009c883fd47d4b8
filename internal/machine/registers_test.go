package machine_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/postproc"
	"repro/internal/stlib"
)

// TestCalleeSavesAcrossSuspendResume loads distinctive values into every
// callee-save register, blocks the thread, and checks the values after the
// resume: the context snapshot (suspend) and the register reload (restart /
// StartThread) must round-trip all eight.
func TestCalleeSavesAcrossSuspendResume(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	// child(gate, done, out): fill R2..R7 with patterns (R0/R1 hold the
	// counters), park, then store everything to out[0..7].
	c := u.Proc("child", 3, stlib.CtxWords)
	c.LoadArg(isa.R0, 0)
	c.LoadArg(isa.R1, 1)
	for i := 2; i < isa.NumCalleeSave; i++ {
		c.Const(isa.R0+isa.Reg(i), int64(1000+i*111))
	}
	stlib.JCJoinInline(c, isa.R0, 0) // park; R2..R7 live across
	c.LoadArg(isa.T0, 2)
	for i := 2; i < isa.NumCalleeSave; i++ {
		c.Store(isa.T0, int64(i), isa.R0+isa.Reg(i))
	}
	stlib.JCFinishInline(c, isa.R1)
	c.RetVoid()

	const (
		locGate = 0
		locDone = stlib.JCWords
		locCtx  = 2 * stlib.JCWords
	)
	m := u.Proc("main", 1, 2*stlib.JCWords+stlib.CtxWords)
	m.LoadArg(isa.R2, 0) // out
	m.LocalAddr(isa.R0, locGate)
	m.LocalAddr(isa.R1, locDone)
	stlib.JCInitInline(m, isa.R0, 1)
	stlib.JCInitInline(m, isa.R1, 1)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R1)
	m.SetArg(2, isa.R2)
	m.Fork("child")
	// Clobber every callee-save in the parent before waking the child: if
	// the suspend snapshot leaked, the child would see these values.
	for i := 2; i < isa.NumCalleeSave; i++ {
		m.Const(isa.R0+isa.Reg(i), -9)
	}
	m.LoadArg(isa.R2, 0) // recover out (we just clobbered it)
	m.LocalAddr(isa.R0, locGate)
	m.LocalAddr(isa.R1, locDone)
	stlib.JCFinishInline(m, isa.R0)
	stlib.JCJoinInline(m, isa.R1, locCtx)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "main", 1)

	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{Augment: true})
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(64)
	out, err := mm.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(prog, mm, isa.SPARC(), 1, machine.Options{
		StackWords: 1 << 12, CheckInvariants: true,
	})
	if _, err := runOn(mach, stlib.ProcBoot, out); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < isa.NumCalleeSave; i++ {
		if got, want := mm.Load(out+int64(i)), int64(1000+i*111); got != want {
			t.Errorf("r%d after resume = %d, want %d", i, got, want)
		}
	}
}

// TestCalleeSavesAcrossRestartThunk checks the invalid-frame mechanism of
// Section 3.4: a frame that calls restart gets its callee-save registers
// back when control returns through the patched chain, even though the
// chain's pure epilogues loaded older values on the way.
func TestCalleeSavesAcrossRestartThunk(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	// f(ctxAddr): block, then just return.
	f := u.Proc("f", 1, 0)
	f.LoadArg(isa.T0, 0)
	f.SetArg(0, isa.T0)
	f.Const(isa.T1, 1)
	f.SetArg(1, isa.T1)
	f.Call("suspend")
	f.RetVoid()

	// g(ctxAddr, out): load patterns, restart f's chain, then store the
	// patterns — they must have survived through the thunk restore.
	g := u.Proc("g", 2, 0)
	for i := 2; i < isa.NumCalleeSave; i++ {
		g.Const(isa.R0+isa.Reg(i), int64(7000+i))
	}
	g.LoadArg(isa.R0, 1) // out (callee-save, restored by the thunk too)
	g.LoadArg(isa.T0, 0)
	g.SetArg(0, isa.T0)
	g.Call("restart")
	for i := 2; i < isa.NumCalleeSave; i++ {
		g.Store(isa.R0, int64(i), isa.R0+isa.Reg(i))
	}
	g.RetVoid()

	m := u.Proc("main", 2, 0)
	m.LoadArg(isa.R0, 0) // ctx addr (heap)
	m.LoadArg(isa.R1, 1) // out
	m.SetArg(0, isa.R0)
	m.Fork("f") // f blocks immediately
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R1)
	m.Call("g")
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{Augment: true})
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(64)
	ctx, err := mm.Alloc(machine.ContextWords)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mm.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(prog, mm, isa.SPARC(), 1, machine.Options{
		StackWords: 1 << 12, CheckInvariants: true,
	})
	if _, err := runOn(mach, "main", ctx, out); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < isa.NumCalleeSave; i++ {
		if got, want := mm.Load(out+int64(i)), int64(7000+i); got != want {
			t.Errorf("r%d after thunk = %d, want %d", i, got, want)
		}
	}
}
