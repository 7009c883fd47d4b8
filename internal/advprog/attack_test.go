package advprog

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/stlib"
)

// These are the harness's negative controls at the program level: actual
// attack programs — not state sabotage from a test hook — that clobber a
// live canary or leak a private word, proving each security rule fires
// with its own name.

// clobberWorkload builds the caller-integrity attack: the parent stamps a
// canary, hands its address to a forked child, and the child overwrites
// it — a cross-frame write into retained state.
func clobberWorkload() *apps.Workload {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	c := u.Proc("atk_child", 2, 0)
	c.LoadArg(isa.R0, 0) // canary address in the parent's frame
	c.LoadArg(isa.R1, 1) // parent jc
	c.Const(isa.T0, 99)
	c.Store(isa.R0, 0, isa.T0) // the clobber
	stlib.JCFinishInline(c, isa.R1)
	c.RetVoid()

	const (
		locJC  = 0
		locCtx = stlib.JCWords
		locCan = stlib.JCWords + stlib.CtxWords
	)
	m := u.Proc("atk_main", 0, locCan+1)
	m.LocalAddr(isa.T1, locCan)
	m.Const(isa.T2, 12345)
	m.Const(isa.T3, 0)
	m.SetArg(0, isa.T1)
	m.SetArg(1, isa.T2)
	m.SetArg(2, isa.T3)
	m.Call("canary")
	m.LocalAddr(isa.R2, locJC)
	stlib.JCInitInline(m, isa.R2, 1)
	m.LocalAddr(isa.T1, locCan)
	m.SetArg(0, isa.T1)
	m.SetArg(1, isa.R2)
	m.Fork("atk_child")
	m.Poll()
	stlib.JCJoinInline(m, isa.R2, locCtx)
	m.LocalAddr(isa.T1, locCan)
	m.Const(isa.T2, 12345)
	m.SetArg(0, isa.T1)
	m.SetArg(1, isa.T2)
	m.Call("canary_retire")
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "atk_main", 0)

	return &apps.Workload{Name: "atk-clobber", Variant: apps.ST, Procs: u.MustBuild(),
		Entry: stlib.ProcBoot, HeapWords: 1 << 8}
}

// leakWorkload builds the frame-confidentiality attack: a frame stamps a
// private canary and returns without retiring it, leaving an unpublished
// word live in space the runtime hands out as free.
func leakWorkload() *apps.Workload {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	m := u.Proc("leak_main", 0, 1)
	m.LocalAddr(isa.T1, 0)
	m.Const(isa.T2, 4242)
	m.Const(isa.T3, 1) // private
	m.SetArg(0, isa.T1)
	m.SetArg(1, isa.T2)
	m.SetArg(2, isa.T3)
	m.Call("canary")
	m.Const(isa.RV, 7)
	m.Ret(isa.RV) // no retire: the word leaks past the frame's lifetime
	stlib.AddBoot(u, "leak_main", 0)

	return &apps.Workload{Name: "atk-leak", Variant: apps.ST, Procs: u.MustBuild(),
		Entry: stlib.ProcBoot, HeapWords: 1 << 8}
}

func runAttack(t *testing.T, w *apps.Workload) error {
	t.Helper()
	_, err := core.Run(w, core.Config{
		Mode: core.StackThreads, Workers: 2, Seed: 1,
		Audit: invariant.New(1), Canary: machine.NewCanaryMap(),
	})
	return err
}

func wantRule(t *testing.T, err error, rule string) {
	t.Helper()
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("attack not caught as a typed violation: %v", err)
	}
	if v.Rule != rule {
		t.Fatalf("rule %q, want %q: %v", v.Rule, rule, v)
	}
	if v.Dump == "" {
		t.Fatal("violation carries no machine-state dump")
	}
}

// TestAttackClobberCanary: the cross-frame write must abort the run with
// a caller-integrity violation.
func TestAttackClobberCanary(t *testing.T) {
	wantRule(t, runAttack(t, clobberWorkload()), "caller-integrity")
}

// TestAttackLeakPrivateCanary: the leaked private word sits below the
// stack top once its frame retires — the final audit must flag
// frame-confidentiality.
func TestAttackLeakPrivateCanary(t *testing.T) {
	wantRule(t, runAttack(t, leakWorkload()), "frame-confidentiality")
}
