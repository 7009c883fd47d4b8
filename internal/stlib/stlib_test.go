package stlib_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/postproc"
	"repro/internal/sched"
	"repro/internal/stlib"
)

// run executes main(args...) on one worker with invariants checked.
func run(t *testing.T, u *asm.Unit, entry string, args ...int64) int64 {
	t.Helper()
	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{Augment: true})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(prog, mem.New(1<<10), isa.SPARC(), 1, machine.Options{
		StackWords:      1 << 13,
		CheckInvariants: true,
	})
	res, err := sched.Run(m, entry, args, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.RV
}

// TestJoinFastPath: joining an already-finished counter must not suspend.
func TestJoinFastPath(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	w := u.Proc("worker", 1, 0)
	w.LoadArg(isa.R0, 0)
	w.SetArg(0, isa.R0)
	w.Call(stlib.ProcJCFinish)
	w.RetVoid()

	m := u.Proc("main", 0, stlib.JCWords)
	m.LocalAddr(isa.R0, 0)
	m.SetArg(0, isa.R0)
	m.Const(isa.T0, 2)
	m.SetArg(1, isa.T0)
	m.Call(stlib.ProcJCInit)
	m.SetArg(0, isa.R0)
	m.Call("worker") // synchronous: finishes once
	m.SetArg(0, isa.R0)
	m.Call("worker") // finishes twice: counter hits zero
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcJCJoin) // fast path
	m.Const(isa.RV, 7)
	m.Ret(isa.RV)

	if rv := run(t, u, "main"); rv != 7 {
		t.Fatalf("rv = %d", rv)
	}
}

// TestBootResultPlumbing: the boot shim must return main's value through
// the halt builtin for any argument count.
func TestBootResultPlumbing(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	m := u.Proc("sum3", 3, 0)
	m.LoadArg(isa.T0, 0)
	m.LoadArg(isa.T1, 1)
	m.Add(isa.T0, isa.T0, isa.T1)
	m.LoadArg(isa.T1, 2)
	m.Add(isa.RV, isa.T0, isa.T1)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "sum3", 3)

	if rv := run(t, u, stlib.ProcBoot, 100, 20, 3); rv != 123 {
		t.Fatalf("boot rv = %d, want 123", rv)
	}
}

// TestInlineAndProcJoinAgree runs the same blocking dance through the
// library procedures and through the inline macros; results and semantics
// must match.
func TestInlineAndProcJoinAgree(t *testing.T) {
	build := func(inline bool) *asm.Unit {
		u := asm.NewUnit()
		stlib.AddJoinLib(u)

		// child(jcDone, jcWait): waits on jcWait, then finishes jcDone.
		c := u.Proc("child", 2, stlib.CtxWords)
		c.LoadArg(isa.R0, 0)
		c.LoadArg(isa.R1, 1)
		if inline {
			stlib.JCJoinInline(c, isa.R1, 0)
			stlib.JCFinishInline(c, isa.R0)
		} else {
			c.SetArg(0, isa.R1)
			c.Call(stlib.ProcJCJoin)
			c.SetArg(0, isa.R0)
			c.Call(stlib.ProcJCFinish)
		}
		c.RetVoid()

		const (
			locA   = 0
			locB   = stlib.JCWords
			locCtx = 2 * stlib.JCWords
		)
		m := u.Proc("top", 0, 2*stlib.JCWords+stlib.CtxWords)
		m.LocalAddr(isa.R0, locA)
		m.LocalAddr(isa.R1, locB)
		if inline {
			stlib.JCInitInline(m, isa.R0, 1)
			stlib.JCInitInline(m, isa.R1, 1)
		} else {
			m.SetArg(0, isa.R0)
			m.Const(isa.T0, 1)
			m.SetArg(1, isa.T0)
			m.Call(stlib.ProcJCInit)
			m.SetArg(0, isa.R1)
			m.Const(isa.T0, 1)
			m.SetArg(1, isa.T0)
			m.Call(stlib.ProcJCInit)
		}
		m.SetArg(0, isa.R0)
		m.SetArg(1, isa.R1)
		m.Fork("child") // child parks on jcB
		if inline {
			stlib.JCFinishInline(m, isa.R1) // wake the child
			stlib.JCJoinInline(m, isa.R0, locCtx)
		} else {
			m.SetArg(0, isa.R1)
			m.Call(stlib.ProcJCFinish)
			m.SetArg(0, isa.R0)
			m.Call(stlib.ProcJCJoin)
		}
		m.Const(isa.RV, 55)
		m.Ret(isa.RV)
		stlib.AddBoot(u, "top", 0)
		return u
	}

	for _, inline := range []bool{false, true} {
		if rv := run(t, build(inline), stlib.ProcBoot); rv != 55 {
			t.Fatalf("inline=%v: rv = %d", inline, rv)
		}
	}
}

// TestArgsRegionAcrossBlockedChild reproduces the Section 7 concern: a
// parent makes two logically concurrent calls whose arguments share the
// SP-relative region. The first child blocks; the parent's second call must
// not overwrite the first child's still-unread arguments (Invariant 2's
// extension puts the new arguments below the retained frames).
func TestArgsRegionAcrossBlockedChild(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	// blocker(v, jcDone, jcWait): parks FIRST, then reads its argument v
	// (from the parent's frame) and adds it to the result cell at
	// jcDone[3], then finishes jcDone.
	c := u.Proc("blocker", 3, stlib.CtxWords)
	c.LoadArg(isa.R0, 1)
	c.LoadArg(isa.R1, 2)
	stlib.JCJoinInline(c, isa.R1, 0)
	// Resumed: only now read the argument the parent wrote long ago.
	c.LoadArg(isa.T0, 0)
	c.Load(isa.T1, isa.R0, 3)
	c.Add(isa.T1, isa.T1, isa.T0)
	c.Store(isa.R0, 3, isa.T1)
	stlib.JCFinishInline(c, isa.R0)
	c.RetVoid()

	// One gate per child: a join counter accepts a single waiter.
	const (
		locDone  = 0
		locGate1 = stlib.JCWords
		locGate2 = 2 * stlib.JCWords
		locCtx   = 3 * stlib.JCWords
	)
	m := u.Proc("top", 0, 3*stlib.JCWords+stlib.CtxWords)
	m.LocalAddr(isa.R0, locDone)
	m.LocalAddr(isa.R1, locGate1)
	m.LocalAddr(isa.R2, locGate2)
	stlib.JCInitInline(m, isa.R0, 2)
	stlib.JCInitInline(m, isa.R1, 1)
	stlib.JCInitInline(m, isa.R2, 1)
	// First child: argument 1000. It parks on its gate immediately.
	m.Const(isa.T0, 1000)
	m.SetArg(0, isa.T0)
	m.SetArg(1, isa.R0)
	m.SetArg(2, isa.R1)
	m.Fork("blocker")
	// Second child: argument 456 written to the *same* logical slots.
	m.Const(isa.T0, 456)
	m.SetArg(0, isa.T0)
	m.SetArg(1, isa.R0)
	m.SetArg(2, isa.R2)
	m.Fork("blocker")
	// Open both gates, then join both children.
	stlib.JCFinishInline(m, isa.R1)
	stlib.JCFinishInline(m, isa.R2)
	stlib.JCJoinInline(m, isa.R0, locCtx)
	m.Load(isa.RV, isa.R0, 3)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "top", 0)

	if rv := run(t, u, stlib.ProcBoot); rv != 1456 {
		t.Fatalf("rv = %d, want 1456 — a child's arguments were clobbered", rv)
	}
}

// TestFutures builds a future-call program: main forks a producer that
// computes into a future, does other work, then demands the value.
func TestFutures(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	stlib.AddFutureLib(u)

	// producer(fut, jc): value = 40 + 2.
	p := u.Proc("producer", 2, 0)
	p.LoadArg(isa.R0, 0)
	p.LoadArg(isa.R1, 1)
	p.Const(isa.T0, 40)
	p.AddI(isa.T0, isa.T0, 2)
	p.SetArg(0, isa.R0)
	p.SetArg(1, isa.T0)
	p.Call(stlib.ProcFutSet)
	stlib.JCFinishInline(p, isa.R1)
	p.RetVoid()

	const (
		locFut = 0
		locJC  = stlib.FutWords
		locCtx = stlib.FutWords + stlib.JCWords
	)
	m := u.Proc("fmain", 0, stlib.FutWords+stlib.JCWords+stlib.CtxWords)
	m.LocalAddr(isa.R0, locFut)
	m.LocalAddr(isa.R1, locJC)
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcFutInit)
	stlib.JCInitInline(m, isa.R1, 1)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R1)
	m.Fork("producer")
	m.Poll()
	// demand the value (producer already done on one worker — fast path —
	// but parks under contention on many workers)
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcFutGet)
	m.Mov(isa.R2, isa.RV)
	stlib.JCJoinInline(m, isa.R1, locCtx)
	m.Ret(isa.R2)
	stlib.AddBoot(u, "fmain", 0)

	if rv := run(t, u, stlib.ProcBoot); rv != 42 {
		t.Fatalf("future value = %d, want 42", rv)
	}
}

// TestFutureParksWhenUnready forces the slow path: the producer itself
// waits on a gate the consumer only opens after demanding the future.
func TestFutureParksWhenUnready(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	stlib.AddFutureLib(u)

	// gatedProducer(fut, gate, jc): wait for the gate, then set.
	p := u.Proc("gproducer", 3, stlib.CtxWords)
	p.LoadArg(isa.R0, 0)
	p.LoadArg(isa.R1, 1)
	p.LoadArg(isa.R2, 2)
	stlib.JCJoinInline(p, isa.R1, 0)
	p.SetArg(0, isa.R0)
	p.Const(isa.T0, 123)
	p.SetArg(1, isa.T0)
	p.Call(stlib.ProcFutSet)
	stlib.JCFinishInline(p, isa.R2)
	p.RetVoid()

	// waker(fut, gate, jc): opens the gate (runs after the consumer parks
	// on the future, because it sits behind it in the ready order).
	k := u.Proc("waker", 3, 0)
	k.LoadArg(isa.R1, 1)
	k.LoadArg(isa.R2, 2)
	stlib.JCFinishInline(k, isa.R1) // open the gate
	stlib.JCFinishInline(k, isa.R2)
	k.RetVoid()

	const (
		locFut  = 0
		locGate = stlib.FutWords
		locJC   = stlib.FutWords + stlib.JCWords
		locCtx  = stlib.FutWords + 2*stlib.JCWords
	)
	m := u.Proc("fmain", 0, stlib.FutWords+2*stlib.JCWords+stlib.CtxWords)
	m.LocalAddr(isa.R0, locFut)
	m.LocalAddr(isa.R1, locGate)
	m.LocalAddr(isa.R2, locJC)
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcFutInit)
	stlib.JCInitInline(m, isa.R1, 1)
	stlib.JCInitInline(m, isa.R2, 2)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R1)
	m.SetArg(2, isa.R2)
	m.Fork("gproducer") // parks on the gate
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R1)
	m.SetArg(2, isa.R2)
	m.Fork("waker") // queued behind the consumer's park
	// The future is not ready: this parks main; the waker then opens the
	// gate, the producer sets the value and wakes main.
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcFutGet)
	m.Mov(isa.R3, isa.RV)
	stlib.JCJoinInline(m, isa.R2, locCtx)
	m.Ret(isa.R3)
	stlib.AddBoot(u, "fmain", 0)

	if rv := run(t, u, stlib.ProcBoot); rv != 123 {
		t.Fatalf("future value = %d, want 123", rv)
	}
}
