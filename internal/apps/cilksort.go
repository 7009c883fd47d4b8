package apps

import (
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stlib"
)

// cilksortCutoff is the sequential-sort grain.
const cilksortCutoff = 16

// Cilksort builds the cilksort benchmark: parallel mergesort over n random
// integers (the Cilk distribution's sorting benchmark, 2-way split with a
// sequential merge).
func Cilksort(n int64, v Variant, seed uint64) *Workload {
	u := stUnit()
	addIsort(u)
	addMerge(u)
	if v == Seq {
		addCsortSeq(u)
	} else {
		addCsortST(u)
	}

	var w *Workload
	if v == Seq {
		m := u.Proc("csort_main", 3, 0)
		m.LoadArg(isa.T0, 0)
		m.SetArg(0, isa.T0)
		m.LoadArg(isa.T0, 1)
		m.SetArg(1, isa.T0)
		m.LoadArg(isa.T0, 2)
		m.SetArg(2, isa.T0)
		m.Call("csort")
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)
		w = &Workload{Name: "cilksort", Variant: Seq, Procs: u.MustBuild(), Entry: "csort_main"}
	} else {
		m := u.Proc("csort_main", 3, stlib.JCWords)
		m.LocalAddr(isa.R0, 0)
		m.SetArg(0, isa.R0)
		m.Const(isa.T0, 1)
		m.SetArg(1, isa.T0)
		m.Call(stlib.ProcJCInit)
		m.LoadArg(isa.T0, 0)
		m.SetArg(0, isa.T0)
		m.LoadArg(isa.T0, 1)
		m.SetArg(1, isa.T0)
		m.LoadArg(isa.T0, 2)
		m.SetArg(2, isa.T0)
		m.SetArg(3, isa.R0)
		m.Fork("csort")
		m.Poll()
		m.SetArg(0, isa.R0)
		m.Call(stlib.ProcJCJoin)
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)
		stlib.AddBoot(u, "csort_main", 3)
		w = &Workload{Name: "cilksort", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	}

	w.HeapWords = int(2*n) + 1<<12
	input := randInts(n, seed)
	want := slices.Clone(input)
	slices.Sort(want)
	l := newHeapLayout(n, n)
	a, t := l.addrs[0], l.addrs[1]
	w.Setup = func(m *mem.Memory) ([]int64, error) {
		if err := l.alloc(m); err != nil {
			return nil, err
		}
		m.WriteWords(a, input)
		return []int64{a, t, n}, nil
	}
	w.Verify = func(m *mem.Memory, _ int64) error {
		if !slices.Equal(m.ReadWords(a, n), want) {
			return fmt.Errorf("cilksort: output not the sorted input")
		}
		return nil
	}
	return w
}

// randInts generates the deterministic input sequence.
func randInts(n int64, seed uint64) []int64 {
	x := seed*2862933555777941757 + 3037000493
	out := make([]int64, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = int64(x % 1_000_000)
	}
	return out
}

// addIsort emits isort(a, n): insertion sort, the sequential base case.
func addIsort(u *asm.Unit) {
	b := u.Proc("isort", 2, 0)
	outer := b.NewLabel()
	inner := b.NewLabel()
	place := b.NewLabel()
	done := b.NewLabel()

	b.LoadArg(isa.R0, 0) // a
	b.LoadArg(isa.R1, 1) // n
	b.Const(isa.R2, 1)   // i

	b.Bind(outer)
	b.Bge(isa.R2, isa.R1, done)
	b.Add(isa.T0, isa.R0, isa.R2)
	b.Load(isa.R4, isa.T0, 0) // v = a[i]
	b.AddI(isa.R3, isa.R2, -1)

	b.Bind(inner)
	b.BltI(isa.R3, 0, place)
	b.Add(isa.T1, isa.R0, isa.R3)
	b.Load(isa.T2, isa.T1, 0) // a[j]
	b.Ble(isa.T2, isa.R4, place)
	b.Store(isa.T1, 1, isa.T2) // a[j+1] = a[j]
	b.AddI(isa.R3, isa.R3, -1)
	b.Jmp(inner)

	b.Bind(place)
	b.Add(isa.T1, isa.R0, isa.R3)
	b.Store(isa.T1, 1, isa.R4) // a[j+1] = v
	b.AddI(isa.R2, isa.R2, 1)
	b.Jmp(outer)

	b.Bind(done)
	b.RetVoid()
}

// addMerge emits merge(a, na, b, nb, out): stable two-way merge.
func addMerge(u *asm.Unit) {
	b := u.Proc("merge", 5, 0)
	loop := b.NewLabel()
	takeB := b.NewLabel()
	adv := b.NewLabel()
	restA := b.NewLabel()
	restB := b.NewLabel()
	raLoop := b.NewLabel()
	rbLoop := b.NewLabel()
	done := b.NewLabel()

	b.LoadArg(isa.R0, 0) // a
	b.LoadArg(isa.R1, 1) // na
	b.LoadArg(isa.R2, 2) // b
	b.LoadArg(isa.R3, 3) // nb
	b.LoadArg(isa.R4, 4) // out cursor
	b.Const(isa.R5, 0)   // i
	b.Const(isa.R6, 0)   // j

	b.Bind(loop)
	b.Bge(isa.R5, isa.R1, restB)
	b.Bge(isa.R6, isa.R3, restA)
	b.Add(isa.T0, isa.R0, isa.R5)
	b.Load(isa.T2, isa.T0, 0) // va
	b.Add(isa.T1, isa.R2, isa.R6)
	b.Load(isa.T3, isa.T1, 0) // vb
	b.Bgt(isa.T2, isa.T3, takeB)
	b.Store(isa.R4, 0, isa.T2)
	b.AddI(isa.R5, isa.R5, 1)
	b.Jmp(adv)
	b.Bind(takeB)
	b.Store(isa.R4, 0, isa.T3)
	b.AddI(isa.R6, isa.R6, 1)
	b.Bind(adv)
	b.AddI(isa.R4, isa.R4, 1)
	b.Jmp(loop)

	b.Bind(restA)
	b.Bind(raLoop)
	b.Bge(isa.R5, isa.R1, done)
	b.Add(isa.T0, isa.R0, isa.R5)
	b.Load(isa.T2, isa.T0, 0)
	b.Store(isa.R4, 0, isa.T2)
	b.AddI(isa.R5, isa.R5, 1)
	b.AddI(isa.R4, isa.R4, 1)
	b.Jmp(raLoop)

	b.Bind(restB)
	b.Bind(rbLoop)
	b.Bge(isa.R6, isa.R3, done)
	b.Add(isa.T1, isa.R2, isa.R6)
	b.Load(isa.T3, isa.T1, 0)
	b.Store(isa.R4, 0, isa.T3)
	b.AddI(isa.R6, isa.R6, 1)
	b.AddI(isa.R4, isa.R4, 1)
	b.Jmp(rbLoop)

	b.Bind(done)
	b.RetVoid()
}

// addCsortSeq emits csort(a, t, n): sequential divide and conquer.
func addCsortSeq(u *asm.Unit) {
	b := u.Proc("csort", 3, 0)
	rec := b.NewLabel()

	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1)
	b.LoadArg(isa.R2, 2)
	b.BgeI(isa.R2, cilksortCutoff, rec)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R2)
	b.Call("isort")
	b.RetVoid()

	b.Bind(rec)
	b.Const(isa.T0, 2)
	b.Div(isa.R3, isa.R2, isa.T0) // h
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R3)
	b.Call("csort")
	b.Add(isa.T0, isa.R0, isa.R3)
	b.SetArg(0, isa.T0)
	b.Add(isa.T0, isa.R1, isa.R3)
	b.SetArg(1, isa.T0)
	b.Sub(isa.T1, isa.R2, isa.R3)
	b.SetArg(2, isa.T1)
	b.Call("csort")
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R3)
	b.Add(isa.T0, isa.R0, isa.R3)
	b.SetArg(2, isa.T0)
	b.Sub(isa.T1, isa.R2, isa.R3)
	b.SetArg(3, isa.T1)
	b.SetArg(4, isa.R1)
	b.Call("merge")
	// copy the merged run back from t to a
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.Call("memcpy")
	b.RetVoid()
}

// addCsortST emits csort(a, t, n, jc): both halves forked, joined on a
// frame-local counter, then merged sequentially.
func addCsortST(u *asm.Unit) {
	b := u.Proc("csort", 4, stlib.JCWords)
	rec := b.NewLabel()

	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1)
	b.LoadArg(isa.R2, 2)
	b.LoadArg(isa.R4, 3) // parent jc
	b.BgeI(isa.R2, cilksortCutoff, rec)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R2)
	b.Call("isort")
	b.SetArg(0, isa.R4)
	b.Call(stlib.ProcJCFinish)
	b.RetVoid()

	b.Bind(rec)
	b.Const(isa.T0, 2)
	b.Div(isa.R3, isa.R2, isa.T0) // h
	b.LocalAddr(isa.R5, 0)        // child jc
	b.SetArg(0, isa.R5)
	b.Const(isa.T0, 2)
	b.SetArg(1, isa.T0)
	b.Call(stlib.ProcJCInit)

	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R3)
	b.SetArg(3, isa.R5)
	b.Fork("csort")
	b.Poll()

	b.Add(isa.T0, isa.R0, isa.R3)
	b.SetArg(0, isa.T0)
	b.Add(isa.T0, isa.R1, isa.R3)
	b.SetArg(1, isa.T0)
	b.Sub(isa.T1, isa.R2, isa.R3)
	b.SetArg(2, isa.T1)
	b.SetArg(3, isa.R5)
	b.Fork("csort")
	b.Poll()

	b.SetArg(0, isa.R5)
	b.Call(stlib.ProcJCJoin)

	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R3)
	b.Add(isa.T0, isa.R0, isa.R3)
	b.SetArg(2, isa.T0)
	b.Sub(isa.T1, isa.R2, isa.R3)
	b.SetArg(3, isa.T1)
	b.SetArg(4, isa.R1)
	b.Call("merge")
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.Call("memcpy")
	b.SetArg(0, isa.R4)
	b.Call(stlib.ProcJCFinish)
	b.RetVoid()
}
