package machine_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/postproc"
)

// evalProc builds main() executing body and returns RV.
func evalProc(t *testing.T, body func(b *asm.B)) (int64, error) {
	t.Helper()
	u := asm.NewUnit()
	b := u.Proc("main", 0, 4)
	body(b)
	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(prog, mem.New(256), isa.X86(), 1, machine.Options{StackWords: 1 << 10})
	return runOn(m, "main")
}

func mustEval(t *testing.T, body func(b *asm.B)) int64 {
	t.Helper()
	rv, err := evalProc(t, body)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func TestALUInstructions(t *testing.T) {
	cases := []struct {
		name string
		want int64
		body func(b *asm.B)
	}{
		{"add", 30, func(b *asm.B) {
			b.Const(isa.T0, 10)
			b.Const(isa.T1, 20)
			b.Add(isa.RV, isa.T0, isa.T1)
			b.Ret(isa.RV)
		}},
		{"sub-negative", -7, func(b *asm.B) {
			b.Const(isa.T0, 3)
			b.Const(isa.T1, 10)
			b.Sub(isa.RV, isa.T0, isa.T1)
			b.Ret(isa.RV)
		}},
		{"mul", 42, func(b *asm.B) {
			b.Const(isa.T0, 6)
			b.MulI(isa.RV, isa.T0, 7)
			b.Ret(isa.RV)
		}},
		{"div-mod", 3*100 + 1, func(b *asm.B) {
			b.Const(isa.T0, 10)
			b.Const(isa.T1, 3)
			b.Div(isa.T2, isa.T0, isa.T1) // 3
			b.Mod(isa.T3, isa.T0, isa.T1) // 1
			b.MulI(isa.T2, isa.T2, 100)
			b.Add(isa.RV, isa.T2, isa.T3)
			b.Ret(isa.RV)
		}},
		{"bitops", (0b1100&0b1010 | 0b0001) ^ 0b1111, func(b *asm.B) {
			b.Const(isa.T0, 0b1100)
			b.Const(isa.T1, 0b1010)
			b.And(isa.T2, isa.T0, isa.T1)
			b.Const(isa.T3, 0b0001)
			b.Or(isa.T2, isa.T2, isa.T3)
			b.Const(isa.T4, 0b1111)
			b.Xor(isa.RV, isa.T2, isa.T4)
			b.Ret(isa.RV)
		}},
		{"shifts", 5 << 4 >> 2, func(b *asm.B) {
			b.Const(isa.T0, 5)
			b.Const(isa.T1, 4)
			b.Shl(isa.T0, isa.T0, isa.T1)
			b.Const(isa.T1, 2)
			b.Shr(isa.RV, isa.T0, isa.T1)
			b.Ret(isa.RV)
		}},
		{"tas", 100, func(b *asm.B) {
			// tas on a zeroed local: first returns 0 and sets 1.
			b.LocalAddr(isa.T0, 0)
			b.Const(isa.T1, 0)
			b.Store(isa.T0, 0, isa.T1)
			b.Tas(isa.T2, isa.T0, 0) // old = 0
			b.Tas(isa.T3, isa.T0, 0) // old = 1
			b.MulI(isa.T3, isa.T3, 100)
			b.Add(isa.RV, isa.T2, isa.T3)
			b.Ret(isa.RV)
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := mustEval(t, c.body); got != c.want {
				t.Fatalf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestFloatInstructions(t *testing.T) {
	got := mustEval(t, func(b *asm.B) {
		b.ConstF(isa.T0, 1.5)
		b.ConstF(isa.T1, 2.5)
		b.FAdd(isa.T2, isa.T0, isa.T1) // 4.0
		b.FMul(isa.T2, isa.T2, isa.T1) // 10.0
		b.FSub(isa.T2, isa.T2, isa.T0) // 8.5
		b.ConstF(isa.T3, 2.0)
		b.FDiv(isa.T2, isa.T2, isa.T3) // 4.25
		b.FNeg(isa.T2, isa.T2)         // -4.25
		b.FtoI(isa.RV, isa.T2)
		b.Ret(isa.RV)
	})
	if got != -4 {
		t.Fatalf("float chain = %d, want -4", got)
	}

	got = mustEval(t, func(b *asm.B) {
		b.Const(isa.T0, 7)
		b.ItoF(isa.T0, isa.T0)
		b.ConstF(isa.T1, 7.0)
		b.FCmp(isa.T2, isa.T0, isa.T1) // 0
		b.ConstF(isa.T3, 8.0)
		b.FCmp(isa.T4, isa.T0, isa.T3) // -1
		b.FCmp(isa.T5, isa.T3, isa.T0) // 1
		b.MulI(isa.T4, isa.T4, 10)
		b.MulI(isa.T5, isa.T5, 100)
		b.Add(isa.RV, isa.T2, isa.T4)
		b.Add(isa.RV, isa.RV, isa.T5)
		b.Ret(isa.RV)
	})
	if got != 90 {
		t.Fatalf("fcmp chain = %d, want 90", got)
	}
}

func TestMathBuiltins(t *testing.T) {
	got := mustEval(t, func(b *asm.B) {
		b.ConstF(isa.T0, math.Pi/2)
		b.SetArg(0, isa.T0)
		b.Call("sin") // 1.0
		b.Mov(isa.R0, isa.RV)
		b.ConstF(isa.T0, 0.0)
		b.SetArg(0, isa.T0)
		b.Call("cos") // 1.0
		b.FAdd(isa.R0, isa.R0, isa.RV)
		b.ConstF(isa.T0, 4.0)
		b.SetArg(0, isa.T0)
		b.Call("sqrt") // 2.0
		b.FAdd(isa.R0, isa.R0, isa.RV)
		b.FtoI(isa.RV, isa.R0)
		b.Ret(isa.RV)
	})
	if got != 4 {
		t.Fatalf("sin+cos+sqrt = %d, want 4", got)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	_, err := evalProc(t, func(b *asm.B) {
		b.Const(isa.T0, 1)
		b.Const(isa.T1, 0)
		b.Div(isa.RV, isa.T0, isa.T1)
		b.Ret(isa.RV)
	})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestNullPointerTraps(t *testing.T) {
	_, err := evalProc(t, func(b *asm.B) {
		b.Const(isa.T0, 0)
		b.Load(isa.RV, isa.T0, 0)
		b.Ret(isa.RV)
	})
	if err == nil || !strings.Contains(err.Error(), "memory trap") {
		t.Fatalf("err = %v", err)
	}
}

func TestStackOverflowTraps(t *testing.T) {
	u := asm.NewUnit()
	r := u.Proc("recurse", 1, 8)
	r.LoadArg(isa.T0, 0)
	r.SetArg(0, isa.T0)
	r.Call("recurse")
	r.RetVoid()
	m := u.Proc("main", 0, 0)
	m.Const(isa.T0, 0)
	m.SetArg(0, isa.T0)
	m.Call("recurse")
	m.Ret(isa.RV)
	procs, err := u.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm := machine.New(prog, mem.New(64), isa.X86(), 1, machine.Options{StackWords: 1 << 10})
	_, err = runOn(mm, "main")
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerAndRandBuiltins(t *testing.T) {
	got := mustEval(t, func(b *asm.B) {
		b.Call("worker_id") // 0
		b.Mov(isa.R0, isa.RV)
		b.Call("num_workers") // 1
		b.Add(isa.RV, isa.R0, isa.RV)
		b.Ret(isa.RV)
	})
	if got != 1 {
		t.Fatalf("worker_id+num_workers = %d", got)
	}
	// rand returns non-negative and is deterministic per seed.
	a := mustEval(t, func(b *asm.B) {
		b.Call("rand")
		b.Ret(isa.RV)
	})
	bb := mustEval(t, func(b *asm.B) {
		b.Call("rand")
		b.Ret(isa.RV)
	})
	if a < 0 || a != bb {
		t.Fatalf("rand not deterministic non-negative: %d vs %d", a, bb)
	}
}

func TestMemBuiltins(t *testing.T) {
	got := mustEval(t, func(b *asm.B) {
		// alloc 8; memset to 5; copy 4 words to a second alloc; sum one.
		b.Const(isa.T0, 8)
		b.SetArg(0, isa.T0)
		b.Call("alloc")
		b.Mov(isa.R0, isa.RV)
		b.SetArg(0, isa.R0)
		b.Const(isa.T0, 5)
		b.SetArg(1, isa.T0)
		b.Const(isa.T0, 8)
		b.SetArg(2, isa.T0)
		b.Call("memset")
		b.Const(isa.T0, 4)
		b.SetArg(0, isa.T0)
		b.Call("alloc")
		b.Mov(isa.R1, isa.RV)
		b.SetArg(0, isa.R1)
		b.SetArg(1, isa.R0)
		b.Const(isa.T0, 4)
		b.SetArg(2, isa.T0)
		b.Call("memcpy")
		b.Load(isa.RV, isa.R1, 3)
		b.Ret(isa.RV)
	})
	if got != 5 {
		t.Fatalf("memset/memcpy = %d, want 5", got)
	}
}

func TestCountThreads(t *testing.T) {
	// Build nested forks and ask the runtime how many threads sit on the
	// stack at the deepest point, via a tiny builtin-free probe: the count
	// is checked indirectly by the steal protocol tests; here we check the
	// zero case.
	u := asm.NewUnit()
	m := u.Proc("main", 0, 0)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	procs, _ := u.Build()
	prog, err := postproc.Compile(procs, postproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm := machine.New(prog, mem.New(64), isa.X86(), 1, machine.Options{StackWords: 1 << 10})
	if n := mm.Workers[0].CountThreads(); n != 0 {
		t.Fatalf("CountThreads on idle worker = %d", n)
	}
}

// TestBudgetSlicedExecutionEquivalence: running in tiny budget slices must
// produce exactly the same final state as one uninterrupted run.
func TestBudgetSlicedExecutionEquivalence(t *testing.T) {
	build := func() (*machine.Machine, int64) {
		w := apps.Fib(12, apps.Seq)
		prog, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(prog, mem.New(256), isa.X86(), 1, machine.Options{StackWords: 1 << 12})
		return m, prog.EntryOf["fib"]
	}

	big, entry := build()
	big.Workers[0].StartCall(entry, []int64{12})
	if ev := big.Workers[0].Run(math.MaxInt64); ev != machine.EvHalt {
		t.Fatalf("big run: %v (%v)", ev, big.Workers[0].Err)
	}

	small, entry := build()
	small.Workers[0].StartCall(entry, []int64{12})
	for {
		ev := small.Workers[0].Run(17)
		if ev == machine.EvHalt {
			break
		}
		if ev != machine.EvBudget {
			t.Fatalf("sliced run: %v (%v)", ev, small.Workers[0].Err)
		}
	}

	if big.Workers[0].Regs[isa.RV] != small.Workers[0].Regs[isa.RV] {
		t.Fatal("results differ")
	}
	if big.Workers[0].Cycles != small.Workers[0].Cycles {
		t.Fatalf("cycles differ: %d vs %d", big.Workers[0].Cycles, small.Workers[0].Cycles)
	}
	if big.Workers[0].Stats.Instrs != small.Workers[0].Stats.Instrs {
		t.Fatalf("instrs differ: %d vs %d", big.Workers[0].Stats.Instrs, small.Workers[0].Stats.Instrs)
	}
}
