package apps

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stlib"
)

// luChunkRows is the parallel grain of the trailing-matrix update.
const luChunkRows = 4

// LU environment block: env[0] matrix base, env[1] n.

// LU builds the lu benchmark: in-place LU decomposition without pivoting
// (Doolittle). For each pivot k the column scaling runs sequentially and
// the trailing-matrix row updates are forked in chunks and joined.
func LU(n int64, v Variant, seed uint64) *Workload {
	u := stUnit()
	addLUDiv(u)
	addLURows(u, v == ST)

	if v == Seq {
		m := u.Proc("lu_main", 1, 0)
		kLoop := m.NewLabel()
		rLoop := m.NewLabel()
		rDone := m.NewLabel()
		done := m.NewLabel()
		m.LoadArg(isa.R0, 0)      // env
		m.Load(isa.R1, isa.R0, 1) // n
		m.Const(isa.R2, 0)        // k
		m.Bind(kLoop)
		m.Bge(isa.R2, isa.R1, done)
		m.SetArg(0, isa.R0)
		m.SetArg(1, isa.R2)
		m.Call("lu_div")
		m.AddI(isa.R3, isa.R2, 1) // i0
		m.Bind(rLoop)
		m.Bge(isa.R3, isa.R1, rDone)
		m.SetArg(0, isa.R0)
		m.SetArg(1, isa.R2)
		m.SetArg(2, isa.R3)
		m.Const(isa.T0, luChunkRows)
		m.SetArg(3, isa.T0)
		m.Call("lu_rows")
		m.AddI(isa.R3, isa.R3, luChunkRows)
		m.Jmp(rLoop)
		m.Bind(rDone)
		m.AddI(isa.R2, isa.R2, 1)
		m.Jmp(kLoop)
		m.Bind(done)
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)

		w := &Workload{Name: "lu", Variant: Seq, Procs: u.MustBuild(), Entry: "lu_main"}
		luSetup(w, n, seed)
		return w
	}

	// lu_update(env, k, i0, ni, jc): recursive bisection over the trailing
	// rows of pivot step k — a steal ships half the remaining range.
	c := u.Proc("lu_update", 5, stlib.JCWords+stlib.CtxWords)
	rec := c.NewLabel()
	c.LoadArg(isa.R0, 0)
	c.LoadArg(isa.R1, 1) // k
	c.LoadArg(isa.R2, 2) // i0
	c.LoadArg(isa.R3, 3) // ni
	c.LoadArg(isa.R4, 4) // parent jc
	c.BgtI(isa.R3, luChunkRows, rec)
	c.SetArg(0, isa.R0)
	c.SetArg(1, isa.R1)
	c.SetArg(2, isa.R2)
	c.SetArg(3, isa.R3)
	c.Call("lu_rows")
	stlib.JCFinishInline(c, isa.R4)
	c.RetVoid()
	c.Bind(rec)
	c.Const(isa.T0, 2)
	c.Div(isa.R5, isa.R3, isa.T0) // h
	c.LocalAddr(isa.R6, 0)
	stlib.JCInitInline(c, isa.R6, 2)
	c.SetArg(0, isa.R0)
	c.SetArg(1, isa.R1)
	c.SetArg(2, isa.R2)
	c.SetArg(3, isa.R5)
	c.SetArg(4, isa.R6)
	c.Fork("lu_update")
	c.Poll()
	c.SetArg(0, isa.R0)
	c.SetArg(1, isa.R1)
	c.Add(isa.T0, isa.R2, isa.R5)
	c.SetArg(2, isa.T0)
	c.Sub(isa.T1, isa.R3, isa.R5)
	c.SetArg(3, isa.T1)
	c.SetArg(4, isa.R6)
	c.Fork("lu_update")
	c.Poll()
	stlib.JCJoinInline(c, isa.R6, stlib.JCWords)
	stlib.JCFinishInline(c, isa.R4)
	c.RetVoid()

	m := u.Proc("lu_main", 1, stlib.JCWords)
	kLoop := m.NewLabel()
	skipPar := m.NewLabel()
	done := m.NewLabel()
	m.LoadArg(isa.R0, 0)
	m.Load(isa.R1, isa.R0, 1)
	m.Const(isa.R2, 0)
	m.LocalAddr(isa.R5, 0)
	m.Bind(kLoop)
	m.Bge(isa.R2, isa.R1, done)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R2)
	m.Call("lu_div")
	m.Sub(isa.R3, isa.R1, isa.R2)
	m.AddI(isa.R3, isa.R3, -1) // trailing rows
	m.BleI(isa.R3, 0, skipPar)
	// Near the end the trailing update is too small for distribution to
	// pay off; run it in place (standard grain control).
	seqTail := m.NewLabel()
	join := m.NewLabel()
	m.BgtI(isa.R3, 3*luChunkRows, seqTail)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R2)
	m.AddI(isa.T0, isa.R2, 1)
	m.SetArg(2, isa.T0)
	m.SetArg(3, isa.R3)
	m.Call("lu_rows")
	m.Jmp(skipPar)
	m.Bind(seqTail)
	stlib.JCInitInline(m, isa.R5, 1)
	m.SetArg(0, isa.R0)
	m.SetArg(1, isa.R2)
	m.AddI(isa.T0, isa.R2, 1)
	m.SetArg(2, isa.T0)
	m.SetArg(3, isa.R3)
	m.SetArg(4, isa.R5)
	m.Fork("lu_update")
	m.Poll()
	m.Bind(join)
	m.SetArg(0, isa.R5)
	m.Call(stlib.ProcJCJoin)
	m.Bind(skipPar)
	m.AddI(isa.R2, isa.R2, 1)
	m.Jmp(kLoop)
	m.Bind(done)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	stlib.AddBoot(u, "lu_main", 1)
	w := &Workload{Name: "lu", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	luSetup(w, n, seed)
	return w
}

// addLUDiv emits lu_div(env, k): a[i][k] /= a[k][k] for i in (k, n).
func addLUDiv(u *asm.Unit) {
	b := u.Proc("lu_div", 2, 0)
	loop := b.NewLabel()
	done := b.NewLabel()
	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1)      // k
	b.Load(isa.R2, isa.R0, 0) // a
	b.Load(isa.R3, isa.R0, 1) // n
	// pivot = a[k*n+k]
	b.Mul(isa.T0, isa.R1, isa.R3)
	b.Add(isa.T0, isa.T0, isa.R1)
	b.Add(isa.T0, isa.T0, isa.R2)
	b.Load(isa.R4, isa.T0, 0) // pivot bits
	b.AddI(isa.R5, isa.R1, 1) // i
	b.Bind(loop)
	b.Bge(isa.R5, isa.R3, done)
	b.Mul(isa.T0, isa.R5, isa.R3)
	b.Add(isa.T0, isa.T0, isa.R1)
	b.Add(isa.T0, isa.T0, isa.R2)
	b.Load(isa.T1, isa.T0, 0)
	b.FDiv(isa.T1, isa.T1, isa.R4)
	b.Store(isa.T0, 0, isa.T1)
	b.AddI(isa.R5, isa.R5, 1)
	b.Jmp(loop)
	b.Bind(done)
	b.RetVoid()
}

// addLURows emits lu_rows(env, k, i0, ni): the trailing update
// a[i][j] -= a[i][k]·a[k][j] for i in [i0, min(i0+ni, n)), j in (k, n).
func addLURows(u *asm.Unit, poll bool) {
	b := u.Proc("lu_rows", 4, 0)
	iLoop := b.NewLabel()
	jLoop := b.NewLabel()
	jDone := b.NewLabel()
	iDone := b.NewLabel()

	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1) // k
	b.LoadArg(isa.R2, 2) // i
	b.LoadArg(isa.R3, 3) // ni
	b.Load(isa.R4, isa.R0, 0)
	b.Load(isa.R5, isa.R0, 1)
	b.Add(isa.R3, isa.R2, isa.R3) // iEnd

	b.Bind(iLoop)
	b.Bge(isa.R2, isa.R3, iDone)
	b.Bge(isa.R2, isa.R5, iDone)
	if poll {
		b.Poll()
	}
	// lik = a[i*n+k]
	b.Mul(isa.R6, isa.R2, isa.R5)
	b.Add(isa.T0, isa.R6, isa.R1)
	b.Add(isa.T0, isa.T0, isa.R4)
	b.Load(isa.R7, isa.T0, 0)
	// cursors: a[i*n + j], a[k*n + j] for j = k+1
	b.Add(isa.T0, isa.R6, isa.R4)
	b.Add(isa.T0, isa.T0, isa.R1)
	b.AddI(isa.T0, isa.T0, 1) // &a[i][k+1]
	b.Mul(isa.T1, isa.R1, isa.R5)
	b.Add(isa.T1, isa.T1, isa.R4)
	b.Add(isa.T1, isa.T1, isa.R1)
	b.AddI(isa.T1, isa.T1, 1) // &a[k][k+1]
	b.AddI(isa.T6, isa.R1, 1) // j

	b.Bind(jLoop)
	b.Bge(isa.T6, isa.R5, jDone)
	b.Load(isa.T2, isa.T1, 0)
	b.FMul(isa.T2, isa.R7, isa.T2)
	b.Load(isa.T3, isa.T0, 0)
	b.FSub(isa.T3, isa.T3, isa.T2)
	b.Store(isa.T0, 0, isa.T3)
	b.AddI(isa.T0, isa.T0, 1)
	b.AddI(isa.T1, isa.T1, 1)
	b.AddI(isa.T6, isa.T6, 1)
	b.Jmp(jLoop)

	b.Bind(jDone)
	b.AddI(isa.R2, isa.R2, 1)
	b.Jmp(iLoop)

	b.Bind(iDone)
	b.RetVoid()
}

func luSetup(w *Workload, n int64, seed uint64) {
	// Diagonally dominant input keeps the factorization stable without
	// pivoting.
	a := randFloats(n*n, seed)
	for i := int64(0); i < n; i++ {
		a[i*n+i] += float64(n)
	}
	want := append([]float64(nil), a...)
	for k := int64(0); k < n; k++ {
		for i := k + 1; i < n; i++ {
			want[i*n+k] /= want[k*n+k]
		}
		for i := k + 1; i < n; i++ {
			lik := want[i*n+k]
			for j := k + 1; j < n; j++ {
				want[i*n+j] -= lik * want[k*n+j]
			}
		}
	}

	w.HeapWords = int(n*n) + 1<<10
	l := newHeapLayout(n*n, 2)
	aBase, env := l.addrs[0], l.addrs[1]
	w.Setup = func(m *mem.Memory) ([]int64, error) {
		if err := l.alloc(m); err != nil {
			return nil, err
		}
		m.WriteFloats(aBase, a)
		m.WriteWords(env, []int64{aBase, n})
		return []int64{env}, nil
	}
	w.Verify = func(m *mem.Memory, _ int64) error {
		got := m.ReadFloats(aBase, n*n)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return fmt.Errorf("lu[%d] = %g, want %g", i, got[i], want[i])
			}
		}
		return nil
	}
}
