package sched_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/postproc"
	"repro/internal/sched"
	"repro/internal/stlib"
)

// buildDeadlock makes a program whose main joins a counter nobody finishes.
func buildDeadlock(t *testing.T) *apps.Workload {
	t.Helper()
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	m := u.Proc("dead_main", 0, stlib.JCWords)
	m.LocalAddr(isa.R0, 0)
	stlib.JCInitInline(m, isa.R0, 1)
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcJCJoin) // parks forever
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "dead_main", 0)
	return &apps.Workload{
		Name: "deadlock", Variant: apps.ST,
		Procs: u.MustBuild(), Entry: stlib.ProcBoot,
	}
}

func TestDeadlockDetected(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		w := buildDeadlock(t)
		w.Verify = nil
		_, err := core.Run(w, core.Config{Mode: core.StackThreads, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("workers=%d: err = %v, want deadlock", workers, err)
		}
	}
}

// buildSelfLock makes a program whose main takes the same lock twice: the
// second acquire waits on a holder that never runs again.
func buildSelfLock(v apps.Variant) *apps.Workload {
	u := asm.NewUnit()
	m := u.Proc("selflock_main", 0, 0)
	m.Const(isa.R0, mem.Guard) // heap cell 0: the lock word
	for i := 0; i < 2; i++ {
		m.SetArg(0, isa.R0)
		m.Call("lock")
	}
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	w := &apps.Workload{Name: "selflock", Variant: v, Entry: "selflock_main"}
	if v == apps.ST {
		stlib.AddJoinLib(u)
		stlib.AddBoot(u, "selflock_main", 0)
		w.Entry = stlib.ProcBoot
	}
	w.Procs = u.MustBuild()
	return w
}

// TestOneWorkerLockDeadlock: a lone worker blocked on a lock waits on a
// holder that can only be a thread parked on that same worker, so the
// scheduler reports a deadlock at once instead of spinning until the
// MaxCycles backstop — in Sequential mode and in StackThreads at one
// worker alike.
func TestOneWorkerLockDeadlock(t *testing.T) {
	_, err := core.Run(buildSelfLock(apps.Seq), core.Config{Mode: core.Sequential})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("sequential: err = %v, want deadlock", err)
	}
	w := buildSelfLock(apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mm := machine.New(prog, mem.New(64), isa.SPARC(), 1, machine.Options{StackWords: 1 << 12})
	_, err = sched.Run(mm, w.Entry, nil, sched.Config{MaxCycles: 1_000_000})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("stackthreads: err = %v, want deadlock", err)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	m := u.Proc("spin_main", 0, 0)
	loop := m.NewLabel()
	m.Bind(loop)
	m.Poll()
	m.Jmp(loop)
	stlib.AddBoot(u, "spin_main", 0)
	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{Augment: true})
	if err != nil {
		t.Fatal(err)
	}
	mm := machine.New(prog, mem.New(64), isa.SPARC(), 1, machine.Options{StackWords: 1 << 12})
	_, err = sched.Run(mm, stlib.ProcBoot, nil, sched.Config{MaxCycles: 50_000})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("err = %v, want MaxCycles abort", err)
	}
}

func TestUnknownEntryRejected(t *testing.T) {
	w := apps.Fib(5, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mm := machine.New(prog, mem.New(64), isa.SPARC(), 1, machine.Options{})
	if _, err := sched.Run(mm, "no_such_proc", nil, sched.Config{}); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

// TestSingleWorkerSchedEqualsRunSingle: Sequential mode is the scheduler's
// one-worker case, so on the same ST program it must agree with
// StackThreads at one worker on everything but the slice-paced pick count —
// whatever worker count it is asked for.
func TestSingleWorkerSchedEqualsRunSingle(t *testing.T) {
	mk := func() *apps.Workload { return apps.PingPong(20, apps.ST) }

	st, err := core.Run(mk(), core.Config{Mode: core.StackThreads, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.Run(mk(), core.Config{Mode: core.Sequential, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Stats) != 1 {
		t.Fatalf("sequential run used %d workers, want 1", len(seq.Stats))
	}
	if st.Stats[0].Suspends == 0 {
		t.Fatal("pingpong never suspended; the comparison exercises no runtime path")
	}
	st.Picks, seq.Picks = 0, 0
	if !reflect.DeepEqual(st, seq) {
		t.Fatalf("results differ:\nst:  %+v\nseq: %+v", st, seq)
	}
}

// TestEventLog checks the migration timeline: a run with steals logs one
// steal row per Result steal, at least as many requests as steals, and one
// halt, and the per-kind counts agree with the rows.
func TestEventLog(t *testing.T) {
	c := obs.New()
	res, err := core.Run(apps.Fib(15, apps.ST), core.Config{
		Mode: core.StackThreads, Workers: 3, Seed: 1, Obs: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	c.WriteTimeline(&sb)
	rows := map[string]int{}
	counts := map[string]int{}
	for _, line := range strings.Split(sb.String(), "\n")[1:] {
		switch f := strings.Fields(line); len(f) {
		case 6:
			rows[f[1]]++
		case 2:
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("bad count line %q", line)
			}
			counts[f[0]] = n
		}
	}
	for k := range rows {
		if _, ok := counts[k]; !ok {
			t.Fatalf("kind %q has rows but no count line", k)
		}
	}
	for k, n := range counts {
		if rows[k] != n {
			t.Fatalf("%s: %d rows, count line says %d", k, rows[k], n)
		}
	}
	if int64(counts["steal"]) != res.Steals || res.Steals == 0 {
		t.Fatalf("logged %d steals, result says %d", counts["steal"], res.Steals)
	}
	if counts["halt"] != 1 {
		t.Fatalf("halt events = %d", counts["halt"])
	}
	if counts["request"] < counts["steal"] {
		t.Fatal("fewer requests than steals")
	}
}

// TestQuantumInsensitivity: the scheduler slice changes interleavings but
// never results.
func TestQuantumInsensitivity(t *testing.T) {
	for _, q := range []int64{25, 200, 5000} {
		res, err := core.Run(apps.NQueens(7, apps.ST), core.Config{
			Mode: core.StackThreads, Workers: 5, Seed: 3, Quantum: q,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		if res.RV != 40 {
			t.Fatalf("quantum %d: rv=%d", q, res.RV)
		}
	}
}
