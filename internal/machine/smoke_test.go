package machine_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// runOn runs entry(args...) on the scheduler over m and returns the
// program's result.
func runOn(m *machine.Machine, entry string, args ...int64) (int64, error) {
	res, err := sched.Run(m, entry, args, sched.Config{})
	if err != nil {
		return 0, err
	}
	return res.RV, nil
}

// runSingle compiles and runs a workload on one worker with the invariant
// checker on.
func runSingle(t *testing.T, w *apps.Workload) (int64, *machine.Machine) {
	t.Helper()
	prog, err := w.Compile()
	if err != nil {
		t.Fatalf("compile %s/%s: %v", w.Name, w.Variant, err)
	}
	m := machine.New(prog, mem.New(1<<16), isa.SPARC(), 1, machine.Options{
		StackWords:      1 << 16,
		CheckInvariants: true,
	})
	args := w.Args
	if w.Setup != nil {
		args, err = w.Setup(m.Mem)
		if err != nil {
			t.Fatalf("setup %s: %v", w.Name, err)
		}
	}
	rv, err := runOn(m, w.Entry, args...)
	if err != nil {
		t.Fatalf("run %s/%s: %v", w.Name, w.Variant, err)
	}
	if w.Verify != nil {
		if err := w.Verify(m.Mem, rv); err != nil {
			t.Fatalf("verify %s/%s: %v", w.Name, w.Variant, err)
		}
	}
	return rv, m
}

func TestFibSequential(t *testing.T) {
	rv, m := runSingle(t, apps.Fib(15, apps.Seq))
	if rv != 610 {
		t.Fatalf("fib(15) = %d, want 610", rv)
	}
	w := m.Workers[0]
	if w.Stats.Suspends != 0 || w.Stats.Exports != 0 {
		t.Fatalf("sequential run touched the thread runtime: %+v", w.Stats)
	}
	if w.Stats.Calls == 0 {
		t.Fatal("no calls executed")
	}
}

func TestFibStackThreadsSingleWorker(t *testing.T) {
	rv, m := runSingle(t, apps.Fib(12, apps.ST))
	if rv != 144 {
		t.Fatalf("fib(12) = %d, want 144", rv)
	}
	// On a single worker fib executes in strict LIFO order: every child
	// finishes before its parent joins, so joins take the fast path and
	// nothing ever suspends — the defining property of lazy thread
	// creation (forks cost a plain call).
	w := m.Workers[0]
	if w.Stats.Suspends != 0 {
		t.Fatalf("single-worker fib suspended %d times; LIFO runs should not block", w.Stats.Suspends)
	}
}

func TestPingPongSuspendsAndResumes(t *testing.T) {
	const rounds = 25
	rv, m := runSingle(t, apps.PingPong(rounds, apps.ST))
	if rv != 42 {
		t.Fatalf("pingpong = %d, want 42", rv)
	}
	w := m.Workers[0]
	// Each round blocks the child once and the parent once.
	if w.Stats.Suspends < 2*rounds {
		t.Fatalf("suspends = %d, want >= %d", w.Stats.Suspends, 2*rounds)
	}
	if w.Stats.Exports == 0 {
		t.Fatal("no frames were exported despite suspensions")
	}
}

func TestFibSeqAndSTAgree(t *testing.T) {
	for n := int64(0); n <= 10; n++ {
		seq, _ := runSingle(t, apps.Fib(n, apps.Seq))
		st, _ := runSingle(t, apps.Fib(n, apps.ST))
		if seq != st {
			t.Fatalf("fib(%d): seq=%d st=%d", n, seq, st)
		}
	}
}
