package sched_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stlib"
)

// buildUnboundedRecursion makes a program that recurses forever: without a
// work-cycle budget it would run until the MaxCycles backstop (50 billion
// cycles later).
func buildUnboundedRecursion(v apps.Variant) *apps.Workload {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	g := u.Proc("grow", 0, 0)
	g.Poll()
	g.Call("grow")
	g.RetVoid() // unreachable
	if v == apps.Seq {
		return &apps.Workload{
			Name: "grow", Variant: apps.Seq,
			Procs: u.MustBuild(), Entry: "grow",
		}
	}
	stlib.AddBoot(u, "grow", 0)
	return &apps.Workload{
		Name: "grow", Variant: apps.ST,
		Procs: u.MustBuild(), Entry: stlib.ProcBoot,
	}
}

// TestCycleBudgetUnboundedRecursion: the unbounded recursion aborts with
// the typed budget error, in every mode.
func TestCycleBudgetUnboundedRecursion(t *testing.T) {
	const budget = 50_000
	for _, tc := range []struct {
		name    string
		mode    core.Mode
		variant apps.Variant
		workers int
	}{
		{"seq", core.Sequential, apps.Seq, 1},
		{"st/sequential", core.StackThreads, apps.ST, 4},
		{"cilk/sequential", core.Cilk, apps.ST, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildUnboundedRecursion(tc.variant)
			_, err := core.Run(w, core.Config{
				Mode: tc.mode, Workers: tc.workers, Seed: 1, MaxWorkCycles: budget,
			})
			if err == nil {
				t.Fatal("unbounded recursion completed under a cycle budget")
			}
			if !errors.Is(err, core.ErrCycleBudget) {
				t.Fatalf("err = %v, want ErrCycleBudget", err)
			}
			var cbe *core.CycleBudgetError
			if !errors.As(err, &cbe) {
				t.Fatalf("err = %v, want *CycleBudgetError", err)
			}
			if cbe.Budget != budget || cbe.Used <= budget {
				t.Fatalf("budget error fields: used %d, budget %d", cbe.Used, cbe.Budget)
			}
		})
	}
}

// TestCycleBudgetDeterministicAcrossEngines: a budgeted run aborts at the
// identical point with observability attached and without — the sampler
// splits the interpreter's batches differently on the two paths — so the
// typed error is byte-identical too.
func TestCycleBudgetDeterministicAcrossEngines(t *testing.T) {
	run := func(col *obs.Collector) string {
		_, err := core.Run(apps.Fib(15, apps.ST), core.Config{
			Mode: core.StackThreads, Workers: 4, Seed: 1,
			Obs: col, MaxWorkCycles: 30_000,
		})
		if err == nil {
			t.Fatal("fib(15) finished under a 30k-cycle budget")
		}
		if !errors.Is(err, core.ErrCycleBudget) {
			t.Fatalf("err = %v, want ErrCycleBudget", err)
		}
		return err.Error()
	}
	if a, b := run(nil), run(obs.New()); a != b {
		t.Fatalf("runs aborted differently:\n  obs off: %s\n  obs on:  %s", a, b)
	}
}

// TestCycleBudgetNotTriggered: a budget the run fits inside must not
// perturb a single byte of the result, in any mode (the sequential
// baseline switches to the sliced interpreter loop when a budget is set —
// slicing must be invisible).
func TestCycleBudgetNotTriggered(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    core.Mode
		variant apps.Variant
		workers int
	}{
		{"seq", core.Sequential, apps.Seq, 1},
		{"st", core.StackThreads, apps.ST, 4},
		{"cilk", core.Cilk, apps.ST, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := core.Run(apps.Fib(12, tc.variant), core.Config{
				Mode: tc.mode, Workers: tc.workers, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			budgeted, err := core.Run(apps.Fib(12, tc.variant), core.Config{
				Mode: tc.mode, Workers: tc.workers, Seed: 1,
				MaxWorkCycles: 1 << 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, budgeted) {
				t.Fatalf("budgeted run differs:\n  base:     %+v\n  budgeted: %+v", base, budgeted)
			}
		})
	}
}

// TestRunDeadlineSaturates is the regression test for the interpreter's
// budget-deadline overflow: Worker.Run computed deadline = Cycles + budget,
// which wraps negative for a large-but-finite budget once the worker has
// accumulated cycles, making Run report EvBudget instantly forever. The
// deadline must saturate instead, so such a budget means "run to the next
// real event".
func TestRunDeadlineSaturates(t *testing.T) {
	wl := apps.Fib(12, apps.Seq)
	prog, err := wl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(prog, mem.New(1<<10), isa.SPARC(), 1, machine.Options{StackWords: 1 << 13})
	w := m.Workers[0]
	w.StartCall(prog.EntryOf[wl.Entry], wl.Args)
	// Accumulate some cycles first so Cycles + (MaxInt64-1) overflows.
	if ev := w.Run(1000); ev != machine.EvBudget {
		t.Fatalf("warm-up slice ended with %v, want EvBudget", ev)
	}
	c0 := w.Cycles
	ev := w.Run(math.MaxInt64 - 1)
	if ev != machine.EvHalt {
		t.Fatalf("Run(MaxInt64-1) = %v at cycles %d (slice started at %d), want EvHalt", ev, w.Cycles, c0)
	}
	if w.Cycles <= c0 {
		t.Fatalf("run made no progress past cycle %d", c0)
	}
}

// TestHugeFiniteQuantum drives the same overflow through the scheduler: a
// quantum just below MaxInt64 must behave like an effectively unbounded
// slice (the run completes with the right answer), not livelock on
// spurious budget events.
func TestHugeFiniteQuantum(t *testing.T) {
	res, err := core.Run(apps.Fib(12, apps.ST), core.Config{
		Mode: core.StackThreads, Workers: 2, Seed: 1,
		Quantum: math.MaxInt64 - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Run(apps.Fib(12, apps.ST), core.Config{
		Mode: core.StackThreads, Workers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != base.RV {
		t.Fatalf("huge-quantum run returned %d, want %d", res.RV, base.RV)
	}
}

// TestContextCancellation: a canceled context aborts the run with the
// context's error, in every mode.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		mode    core.Mode
		variant apps.Variant
		workers int
	}{
		{"seq", core.Sequential, apps.Seq, 1},
		{"st/sequential", core.StackThreads, apps.ST, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.Run(apps.Fib(15, tc.variant), core.Config{
				Mode: tc.mode, Workers: tc.workers, Seed: 1, Ctx: ctx,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestContextNotTriggered: an un-canceled context must not perturb the
// result (it only switches the sequential baseline onto the sliced loop).
func TestContextNotTriggered(t *testing.T) {
	base, err := core.Run(apps.Fib(12, apps.Seq), core.Config{Mode: core.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := core.Run(apps.Fib(12, apps.Seq), core.Config{
		Mode: core.Sequential, Ctx: context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, withCtx) {
		t.Fatalf("context-carrying run differs:\n  base: %+v\n  ctx:  %+v", base, withCtx)
	}
}
