package machine_test

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/postproc"
	"repro/internal/stlib"
)

// Micro-benchmarks for the multithreading operations the paper's design
// discussion revolves around (Sections 2-5): the cost of a fork relative to
// a call, of suspend/restart, and of the augmented epilogue check. Each
// reports virtual cycles per operation — the quantity the cost arguments in
// the paper are about — alongside the host-time cost of simulating it.

// buildCallLoop makes main(n) call (or fork, with a join) a trivial child n
// times and returns cycles per iteration.
func runLoop(b *testing.B, fork bool, n int64) float64 {
	b.Helper()
	u := asm.NewUnit()
	stlib.AddJoinLib(u)

	c := u.Proc("child", 1, 0)
	if fork {
		c.LoadArg(isa.R0, 0)
		c.AddI(isa.T0, isa.R0, 0)
		stlib.JCFinishInline(c, isa.R0)
	}
	c.RetVoid()

	const locJC = 0
	m := u.Proc("bench_main", 1, stlib.JCWords+stlib.CtxWords)
	loop := m.NewLabel()
	done := m.NewLabel()
	m.LoadArg(isa.R1, 0)
	m.LocalAddr(isa.R2, locJC)
	m.Bind(loop)
	m.BleI(isa.R1, 0, done)
	if fork {
		stlib.JCInitInline(m, isa.R2, 1)
		m.SetArg(0, isa.R2)
		m.Fork("child")
		stlib.JCJoinInline(m, isa.R2, stlib.JCWords)
	} else {
		m.SetArg(0, isa.R2)
		m.Call("child")
	}
	m.AddI(isa.R1, isa.R1, -1)
	m.Jmp(loop)
	m.Bind(done)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	procs, err := u.Build()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{Augment: true})
	if err != nil {
		b.Fatal(err)
	}

	var perIter float64
	for i := 0; i < b.N; i++ {
		mm := machine.New(prog, mem.New(256), isa.SPARC(), 1, machine.Options{StackWords: 1 << 12})
		if _, err := runOn(mm, "bench_main", n); err != nil {
			b.Fatal(err)
		}
		perIter = float64(mm.Workers[0].Cycles) / float64(n)
	}
	return perIter
}

// BenchmarkForkVsCall reports the headline claim of the paper: an
// asynchronous call costs about as much as a procedure call (the fork mark
// itself is free; the measured difference is the join-counter protocol the
// program adds around it).
func BenchmarkForkVsCall(b *testing.B) {
	const n = 5000
	var call, fork float64
	b.Run("call", func(b *testing.B) {
		call = runLoop(b, false, n)
		b.ReportMetric(call, "vcycles/iter")
	})
	b.Run("fork+join", func(b *testing.B) {
		fork = runLoop(b, true, n)
		b.ReportMetric(fork, "vcycles/iter")
	})
}

// BenchmarkSuspendRestart measures a full block/resume round trip: the
// pingpong kernel performs two suspensions, one ready-queue resume and two
// scheduler restarts per round.
func BenchmarkSuspendRestart(b *testing.B) {
	const rounds = 2000
	var per float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(apps.PingPong(rounds, apps.ST), core.Config{Mode: core.StackThreads, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		per = float64(res.Time) / rounds
	}
	b.ReportMetric(per, "vcycles/round")
}

// BenchmarkStealLatency measures one migration: worker 1 steals the bottom
// thread from worker 0 (fib's first distribution steal) — the makespan
// difference between 1 and 2 workers on a two-halves workload approximates
// the protocol cost amortized over the run.
func BenchmarkStealLatency(b *testing.B) {
	var steals, cyclesPerSteal float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(apps.Fib(18, apps.ST), core.Config{Mode: core.StackThreads, Workers: 4, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		steals = float64(res.Steals)
		// Upper bound: all non-compute overhead attributed to steals.
		seq, err := core.Run(apps.Fib(18, apps.ST), core.Config{Mode: core.StackThreads, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		cyclesPerSteal = (float64(res.WorkCycles) - float64(seq.Time)) / steals
	}
	b.ReportMetric(steals, "steals")
	b.ReportMetric(cyclesPerSteal, "overhead-vcycles/steal")
}

// BenchmarkEpilogueCheck isolates the augmented-epilogue cost: the same
// call-heavy program compiled with and without augmentation (criteria
// forced off so every return pays the check).
func BenchmarkEpilogueCheck(b *testing.B) {
	u := asm.NewUnit()
	leaf := u.Proc("leafp", 1, 0)
	leaf.LoadArg(isa.RV, 0)
	leaf.Ret(isa.RV)
	m := u.Proc("bench_main", 1, 0)
	loop := m.NewLabel()
	done := m.NewLabel()
	m.LoadArg(isa.R1, 0)
	m.Bind(loop)
	m.BleI(isa.R1, 0, done)
	m.SetArg(0, isa.R1)
	m.Call("leafp")
	m.AddI(isa.R1, isa.R1, -1)
	m.Jmp(loop)
	m.Bind(done)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	procs, err := u.Build()
	if err != nil {
		b.Fatal(err)
	}

	const n = 20000
	run := func(opt postproc.Options) float64 {
		prog, err := postproc.Compile(procs, opt)
		if err != nil {
			b.Fatal(err)
		}
		mm := machine.New(prog, mem.New(64), isa.SPARC(), 1, machine.Options{StackWords: 1 << 12})
		if _, err := runOn(mm, "bench_main", int64(n)); err != nil {
			b.Fatal(err)
		}
		return float64(mm.Workers[0].Cycles) / n
	}

	var plain, checked float64
	for i := 0; i < b.N; i++ {
		plain = run(postproc.Options{})
		checked = run(postproc.Options{Augment: true, ForceAugmentAll: true})
	}
	b.ReportMetric(plain, "plain-vcycles/call")
	b.ReportMetric(checked, "checked-vcycles/call")
	b.ReportMetric(checked-plain, "check-vcycles/call")
	if math.IsNaN(checked) {
		b.Fatal("no measurement")
	}
}
