package apps

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stlib"
)

// Matrix environment block layout shared by the three multiply benchmarks:
//
//	env[0] A base   env[1] B base   env[2] C base   env[3] n
//
// Matrices are dense row-major float64 (stored as raw bits).

// matmulRowCut is the row grain of the recursive variants.
const matmulRowCut = 2

// matmulSetup binds Setup and Verify for an n×n multiply.
func matmulSetup(w *Workload, n int64, seed uint64, extraHeap int64) {
	a := randFloats(n*n, seed)
	bm := randFloats(n*n, seed+1)
	want := make([]float64, n*n)
	for i := int64(0); i < n; i++ {
		for k := int64(0); k < n; k++ {
			aik := a[i*n+k]
			for j := int64(0); j < n; j++ {
				want[i*n+j] += aik * bm[k*n+j]
			}
		}
	}
	w.HeapWords = int(3*n*n+extraHeap) + 1<<12
	l := newHeapLayout(n*n, n*n, n*n, 4)
	aBase, bBase, cBase, env := l.addrs[0], l.addrs[1], l.addrs[2], l.addrs[3]
	w.Setup = func(m *mem.Memory) ([]int64, error) {
		if err := l.alloc(m); err != nil {
			return nil, err
		}
		m.WriteFloats(aBase, a)
		m.WriteFloats(bBase, bm)
		m.WriteWords(env, []int64{aBase, bBase, cBase, n})
		return []int64{env}, nil
	}
	w.Verify = func(m *mem.Memory, _ int64) error {
		got := m.ReadFloats(cBase, n*n)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return fmt.Errorf("C[%d] = %g, want %g", i, got[i], want[i])
			}
		}
		return nil
	}
}

func randFloats(n int64, seed uint64) []float64 {
	x := seed*2862933555777941757 + 3037000493
	out := make([]float64, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = float64(x%1000)/1000.0 - 0.5
	}
	return out
}

// addRowKernel emits mm_rows(env, cBase, aBase, r0, nr): the sequential
// kernel computing rows [r0, r0+nr) of C += A×B with the (i,k,j) loop
// order. cBase/aBase are passed explicitly so the recursive variants can
// retarget output rows (spacemul writes temporaries).
//
// ST builds poll on the row-loop back-edge (Feeley's polling method bounds
// the instructions between polls; a chunk of rows is far too long a gap).
func addRowKernel(u *asm.Unit, poll bool) {
	b := u.Proc("mm_rows", 5, 0)
	iLoop := b.NewLabel()
	kLoop := b.NewLabel()
	jLoop := b.NewLabel()
	jDone := b.NewLabel()
	kDone := b.NewLabel()
	iDone := b.NewLabel()

	b.LoadArg(isa.R0, 0)      // env
	b.LoadArg(isa.R1, 1)      // C base (already offset to row r0)
	b.LoadArg(isa.R2, 2)      // A base (already offset to row r0)
	b.LoadArg(isa.R4, 4)      // nr
	b.Load(isa.R5, isa.R0, 1) // B base
	b.Load(isa.R6, isa.R0, 3) // n
	b.Const(isa.R7, 0)        // i (row within the chunk)

	b.Bind(iLoop)
	b.Bge(isa.R7, isa.R4, iDone)
	b.Const(isa.R0, 0) // k: env is dead, and k must survive the poll in R0..R7

	b.Bind(kLoop)
	b.Bge(isa.R0, isa.R6, kDone)
	if poll {
		// k-loop back-edge: bounds the poll gap at one j-row of work
		// (Feeley's method strip-mines polls to a few hundred instructions).
		b.Poll()
	}
	// aik = A[i*n + k]
	b.Mul(isa.T0, isa.R7, isa.R6)
	b.Add(isa.T0, isa.T0, isa.R0)
	b.Add(isa.T0, isa.T0, isa.R2)
	b.Load(isa.T5, isa.T0, 0) // aik bits
	// row pointers: Crow = C + i*n, Brow = B + k*n
	b.Mul(isa.T0, isa.R7, isa.R6)
	b.Add(isa.T0, isa.T0, isa.R1) // C row cursor
	b.Mul(isa.T1, isa.R0, isa.R6)
	b.Add(isa.T1, isa.T1, isa.R5) // B row cursor
	b.Const(isa.T6, 0)            // j

	b.Bind(jLoop)
	b.Bge(isa.T6, isa.R6, jDone)
	b.Load(isa.T2, isa.T1, 0)
	b.FMul(isa.T2, isa.T5, isa.T2)
	b.Load(isa.T3, isa.T0, 0)
	b.FAdd(isa.T3, isa.T3, isa.T2)
	b.Store(isa.T0, 0, isa.T3)
	b.AddI(isa.T0, isa.T0, 1)
	b.AddI(isa.T1, isa.T1, 1)
	b.AddI(isa.T6, isa.T6, 1)
	b.Jmp(jLoop)

	b.Bind(jDone)
	b.AddI(isa.R0, isa.R0, 1)
	b.Jmp(kLoop)

	b.Bind(kDone)
	b.AddI(isa.R7, isa.R7, 1)
	b.Jmp(iLoop)

	b.Bind(iDone)
	b.RetVoid()
}

// Notempmul builds the no-temporaries matrix multiply: recursive split over
// output rows, both halves forked; no intermediate storage is allocated.
func Notempmul(n int64, v Variant, seed uint64) *Workload {
	u := stUnit()
	addRowKernel(u, v == ST)

	if v == Seq {
		b := u.Proc("ntm", 5, 0)
		rec := b.NewLabel()
		b.LoadArg(isa.R0, 0) // env
		b.LoadArg(isa.R1, 1) // c
		b.LoadArg(isa.R2, 2) // a
		b.LoadArg(isa.R3, 3) // r0
		b.LoadArg(isa.R4, 4) // nr
		b.BgtI(isa.R4, matmulRowCut, rec)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.SetArg(2, isa.R2)
		b.SetArg(3, isa.R3)
		b.SetArg(4, isa.R4)
		b.Call("mm_rows")
		b.RetVoid()
		b.Bind(rec)
		b.Const(isa.T0, 2)
		b.Div(isa.R5, isa.R4, isa.T0) // h
		b.Load(isa.R6, isa.R0, 3)     // n
		b.Mul(isa.R7, isa.R5, isa.R6) // h*n
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.SetArg(2, isa.R2)
		b.SetArg(3, isa.R3)
		b.SetArg(4, isa.R5)
		b.Call("ntm")
		b.SetArg(0, isa.R0)
		b.Add(isa.T0, isa.R1, isa.R7)
		b.SetArg(1, isa.T0)
		b.Add(isa.T0, isa.R2, isa.R7)
		b.SetArg(2, isa.T0)
		b.Add(isa.T0, isa.R3, isa.R5)
		b.SetArg(3, isa.T0)
		b.Sub(isa.T1, isa.R4, isa.R5)
		b.SetArg(4, isa.T1)
		b.Call("ntm")
		b.RetVoid()

		m := u.Proc("ntm_main", 1, 0)
		b = m
		b.LoadArg(isa.R0, 0)
		b.SetArg(0, isa.R0)
		b.Load(isa.T0, isa.R0, 2)
		b.SetArg(1, isa.T0)
		b.Load(isa.T0, isa.R0, 0)
		b.SetArg(2, isa.T0)
		b.Const(isa.T0, 0)
		b.SetArg(3, isa.T0)
		b.Load(isa.T0, isa.R0, 3)
		b.SetArg(4, isa.T0)
		b.Call("ntm")
		b.Const(isa.RV, 0)
		b.Ret(isa.RV)

		w := &Workload{Name: "notempmul", Variant: Seq, Procs: u.MustBuild(), Entry: "ntm_main"}
		matmulSetup(w, n, seed, 0)
		return w
	}

	b := u.Proc("ntm", 6, stlib.JCWords)
	rec := b.NewLabel()
	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1)
	b.LoadArg(isa.R2, 2)
	b.LoadArg(isa.R3, 3)
	b.LoadArg(isa.R4, 4)
	b.LoadArg(isa.R7, 5) // parent jc
	b.BgtI(isa.R4, matmulRowCut, rec)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.SetArg(3, isa.R3)
	b.SetArg(4, isa.R4)
	b.Call("mm_rows")
	b.SetArg(0, isa.R7)
	b.Call(stlib.ProcJCFinish)
	b.RetVoid()
	b.Bind(rec)
	b.Const(isa.T0, 2)
	b.Div(isa.R5, isa.R4, isa.T0)
	b.Load(isa.T0, isa.R0, 3)
	b.Mul(isa.R6, isa.R5, isa.T0) // h*n
	b.LocalAddr(isa.T1, 0)
	b.SetArg(0, isa.T1)
	b.Const(isa.T0, 2)
	b.SetArg(1, isa.T0)
	b.Call(stlib.ProcJCInit)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.SetArg(3, isa.R3)
	b.SetArg(4, isa.R5)
	b.LocalAddr(isa.T1, 0)
	b.SetArg(5, isa.T1)
	b.Fork("ntm")
	b.Poll()
	b.SetArg(0, isa.R0)
	b.Add(isa.T0, isa.R1, isa.R6)
	b.SetArg(1, isa.T0)
	b.Add(isa.T0, isa.R2, isa.R6)
	b.SetArg(2, isa.T0)
	b.Add(isa.T0, isa.R3, isa.R5)
	b.SetArg(3, isa.T0)
	b.Sub(isa.T1, isa.R4, isa.R5)
	b.SetArg(4, isa.T1)
	b.LocalAddr(isa.T1, 0)
	b.SetArg(5, isa.T1)
	b.Fork("ntm")
	b.Poll()
	b.LocalAddr(isa.T1, 0)
	b.SetArg(0, isa.T1)
	b.Call(stlib.ProcJCJoin)
	b.SetArg(0, isa.R7)
	b.Call(stlib.ProcJCFinish)
	b.RetVoid()

	m := u.Proc("ntm_main", 1, stlib.JCWords)
	m.LoadArg(isa.R0, 0)
	m.LocalAddr(isa.R1, 0)
	m.SetArg(0, isa.R1)
	m.Const(isa.T0, 1)
	m.SetArg(1, isa.T0)
	m.Call(stlib.ProcJCInit)
	m.SetArg(0, isa.R0)
	m.Load(isa.T0, isa.R0, 2)
	m.SetArg(1, isa.T0)
	m.Load(isa.T0, isa.R0, 0)
	m.SetArg(2, isa.T0)
	m.Const(isa.T0, 0)
	m.SetArg(3, isa.T0)
	m.Load(isa.T0, isa.R0, 3)
	m.SetArg(4, isa.T0)
	m.SetArg(5, isa.R1)
	m.Fork("ntm")
	m.Poll()
	m.SetArg(0, isa.R1)
	m.Call(stlib.ProcJCJoin)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	stlib.AddBoot(u, "ntm_main", 1)
	w := &Workload{Name: "notempmul", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	matmulSetup(w, n, seed, 0)
	return w
}

// blockedmulBS is the row-block size of the blocked multiply.
const blockedmulBS = 2

// Blockedmul builds the loop-blocked multiply: the main procedure forks one
// thread per block of rows (flat parallelism, a single join counter).
func Blockedmul(n int64, v Variant, seed uint64) *Workload {
	u := stUnit()
	addRowKernel(u, v == ST)

	if v == Seq {
		m := u.Proc("bmm_main", 1, 0)
		loop := m.NewLabel()
		done := m.NewLabel()
		m.LoadArg(isa.R0, 0)      // env
		m.Load(isa.R1, isa.R0, 3) // n
		m.Const(isa.R2, 0)        // r0
		small := m.NewLabel()
		m.Bind(loop)
		m.Bge(isa.R2, isa.R1, done)
		// nr = min(BS, n-r0)
		m.Sub(isa.R3, isa.R1, isa.R2)
		m.BleI(isa.R3, blockedmulBS, small)
		m.Const(isa.R3, blockedmulBS)
		m.Bind(small)
		m.SetArg(0, isa.R0)
		m.Load(isa.T0, isa.R0, 2)
		m.Mul(isa.T1, isa.R2, isa.R1)
		m.Add(isa.T0, isa.T0, isa.T1)
		m.SetArg(1, isa.T0) // C + r0*n
		m.Load(isa.T0, isa.R0, 0)
		m.Add(isa.T0, isa.T0, isa.T1)
		m.SetArg(2, isa.T0) // A + r0*n
		m.SetArg(3, isa.R2)
		m.SetArg(4, isa.R3)
		m.Call("mm_rows")
		m.Add(isa.R2, isa.R2, isa.R3)
		m.Jmp(loop)
		m.Bind(done)
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)

		w := &Workload{Name: "blockedmul", Variant: Seq, Procs: u.MustBuild(), Entry: "bmm_main"}
		matmulSetup(w, n, seed, 0)
		return w
	}

	// bmm_block(env, c, a, r0, nr, jc): kernel + finish.
	blk := u.Proc("bmm_block", 6, 0)
	blk.LoadArg(isa.R0, 5)
	blk.LoadArg(isa.T0, 0)
	blk.SetArg(0, isa.T0)
	blk.LoadArg(isa.T0, 1)
	blk.SetArg(1, isa.T0)
	blk.LoadArg(isa.T0, 2)
	blk.SetArg(2, isa.T0)
	blk.LoadArg(isa.T0, 3)
	blk.SetArg(3, isa.T0)
	blk.LoadArg(isa.T0, 4)
	blk.SetArg(4, isa.T0)
	blk.Call("mm_rows")
	blk.SetArg(0, isa.R0)
	blk.Call(stlib.ProcJCFinish)
	blk.RetVoid()

	m := u.Proc("bmm_main", 1, stlib.JCWords)
	loop := m.NewLabel()
	done := m.NewLabel()
	m.LoadArg(isa.R0, 0)      // env
	m.Load(isa.R1, isa.R0, 3) // n
	// nblocks = ceil(n / BS)
	m.AddI(isa.T0, isa.R1, blockedmulBS-1)
	m.Const(isa.T1, blockedmulBS)
	m.Div(isa.R4, isa.T0, isa.T1)
	m.LocalAddr(isa.R5, 0)
	m.SetArg(0, isa.R5)
	m.SetArg(1, isa.R4)
	m.Call(stlib.ProcJCInit)
	m.Const(isa.R2, 0) // r0
	small := m.NewLabel()
	m.Bind(loop)
	m.Bge(isa.R2, isa.R1, done)
	m.Sub(isa.R3, isa.R1, isa.R2)
	m.BleI(isa.R3, blockedmulBS, small)
	m.Const(isa.R3, blockedmulBS)
	m.Bind(small)
	m.SetArg(0, isa.R0)
	m.Load(isa.T0, isa.R0, 2)
	m.Mul(isa.T1, isa.R2, isa.R1)
	m.Add(isa.T0, isa.T0, isa.T1)
	m.SetArg(1, isa.T0)
	m.Load(isa.T0, isa.R0, 0)
	m.Add(isa.T0, isa.T0, isa.T1)
	m.SetArg(2, isa.T0)
	m.SetArg(3, isa.R2)
	m.SetArg(4, isa.R3)
	m.SetArg(5, isa.R5)
	m.Fork("bmm_block")
	m.Poll()
	m.Add(isa.R2, isa.R2, isa.R3)
	m.Jmp(loop)
	m.Bind(done)
	m.SetArg(0, isa.R5)
	m.Call(stlib.ProcJCJoin)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	stlib.AddBoot(u, "bmm_main", 1)
	w := &Workload{Name: "blockedmul", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	matmulSetup(w, n, seed, 0)
	return w
}

// spacemulKCut is the inner-dimension grain of spacemul.
const spacemulKCut = 4

// addKSliceKernel emits mm_kslice(env, cBase, kLo, kN): the sequential
// kernel accumulating C += A[:, kLo:kLo+kN] × B[kLo:kLo+kN, :].
func addKSliceKernel(u *asm.Unit, poll bool) {
	b := u.Proc("mm_kslice", 4, 0)
	iLoop := b.NewLabel()
	kLoop := b.NewLabel()
	jLoop := b.NewLabel()
	jDone := b.NewLabel()
	kDone := b.NewLabel()
	iDone := b.NewLabel()

	b.LoadArg(isa.R0, 0)          // env
	b.LoadArg(isa.R1, 1)          // C base
	b.LoadArg(isa.R2, 2)          // kLo
	b.LoadArg(isa.R3, 3)          // kN
	b.Load(isa.R4, isa.R0, 0)     // A base
	b.Load(isa.R5, isa.R0, 1)     // B base
	b.Load(isa.R6, isa.R0, 3)     // n
	b.Const(isa.R7, 0)            // i
	b.Add(isa.R3, isa.R2, isa.R3) // kHi = kLo + kN

	b.Bind(iLoop)
	b.Bge(isa.R7, isa.R6, iDone)
	b.Mov(isa.R0, isa.R2) // k = kLo: env is dead, and k must survive the poll in R0..R7

	b.Bind(kLoop)
	b.Bge(isa.R0, isa.R3, kDone)
	if poll {
		b.Poll()
	}
	b.Mul(isa.T0, isa.R7, isa.R6)
	b.Add(isa.T0, isa.T0, isa.R0)
	b.Add(isa.T0, isa.T0, isa.R4)
	b.Load(isa.T5, isa.T0, 0) // aik
	b.Mul(isa.T0, isa.R7, isa.R6)
	b.Add(isa.T0, isa.T0, isa.R1) // C row cursor
	b.Mul(isa.T1, isa.R0, isa.R6)
	b.Add(isa.T1, isa.T1, isa.R5) // B row cursor
	b.Const(isa.T6, 0)            // j

	b.Bind(jLoop)
	b.Bge(isa.T6, isa.R6, jDone)
	b.Load(isa.T2, isa.T1, 0)
	b.FMul(isa.T2, isa.T5, isa.T2)
	b.Load(isa.T3, isa.T0, 0)
	b.FAdd(isa.T3, isa.T3, isa.T2)
	b.Store(isa.T0, 0, isa.T3)
	b.AddI(isa.T0, isa.T0, 1)
	b.AddI(isa.T1, isa.T1, 1)
	b.AddI(isa.T6, isa.T6, 1)
	b.Jmp(jLoop)

	b.Bind(jDone)
	b.AddI(isa.R0, isa.R0, 1)
	b.Jmp(kLoop)

	b.Bind(kDone)
	b.AddI(isa.R7, isa.R7, 1)
	b.Jmp(iLoop)

	b.Bind(iDone)
	b.RetVoid()
}

// addMatAdd emits mat_add(c, t, len): C += T elementwise.
func addMatAdd(u *asm.Unit) {
	b := u.Proc("mat_add", 3, 0)
	loop := b.NewLabel()
	done := b.NewLabel()
	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1)
	b.LoadArg(isa.R2, 2)
	b.Const(isa.R3, 0)
	b.Bind(loop)
	b.Bge(isa.R3, isa.R2, done)
	b.Load(isa.T0, isa.R0, 0)
	b.Load(isa.T1, isa.R1, 0)
	b.FAdd(isa.T0, isa.T0, isa.T1)
	b.Store(isa.R0, 0, isa.T0)
	b.AddI(isa.R0, isa.R0, 1)
	b.AddI(isa.R1, isa.R1, 1)
	b.AddI(isa.R3, isa.R3, 1)
	b.Jmp(loop)
	b.Bind(done)
	b.RetVoid()
}

// Spacemul builds the temporary-allocating multiply: recursion over the
// inner dimension, with the upper half computed into a freshly allocated
// zeroed temporary matrix that is added back after the join. It stresses
// allocation exactly where notempmul avoids it.
func Spacemul(n int64, v Variant, seed uint64) *Workload {
	u := stUnit()
	addKSliceKernel(u, v == ST)
	addMatAdd(u)

	if v == Seq {
		// smm(env, c, kLo, kN)
		b := u.Proc("smm", 4, 0)
		rec := b.NewLabel()
		b.LoadArg(isa.R0, 0)
		b.LoadArg(isa.R1, 1)
		b.LoadArg(isa.R2, 2)
		b.LoadArg(isa.R3, 3)
		b.BgtI(isa.R3, spacemulKCut, rec)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.SetArg(2, isa.R2)
		b.SetArg(3, isa.R3)
		b.Call("mm_kslice")
		b.RetVoid()
		b.Bind(rec)
		b.Const(isa.T0, 2)
		b.Div(isa.R4, isa.R3, isa.T0) // h
		b.Load(isa.R6, isa.R0, 3)
		b.Mul(isa.R6, isa.R6, isa.R6) // n*n
		b.SetArg(0, isa.R6)
		b.Call("alloc")
		b.Mov(isa.R5, isa.RV) // temp
		b.SetArg(0, isa.R5)
		b.Const(isa.T0, 0)
		b.SetArg(1, isa.T0)
		b.SetArg(2, isa.R6)
		b.Call("memset")
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.SetArg(2, isa.R2)
		b.SetArg(3, isa.R4)
		b.Call("smm")
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R5)
		b.Add(isa.T0, isa.R2, isa.R4)
		b.SetArg(2, isa.T0)
		b.Sub(isa.T1, isa.R3, isa.R4)
		b.SetArg(3, isa.T1)
		b.Call("smm")
		b.SetArg(0, isa.R1)
		b.SetArg(1, isa.R5)
		b.SetArg(2, isa.R6)
		b.Call("mat_add")
		b.RetVoid()

		m := u.Proc("smm_main", 1, 0)
		m.LoadArg(isa.R0, 0)
		m.SetArg(0, isa.R0)
		m.Load(isa.T0, isa.R0, 2)
		m.SetArg(1, isa.T0)
		m.Const(isa.T0, 0)
		m.SetArg(2, isa.T0)
		m.Load(isa.T0, isa.R0, 3)
		m.SetArg(3, isa.T0)
		m.Call("smm")
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)

		w := &Workload{Name: "spacemul", Variant: Seq, Procs: u.MustBuild(), Entry: "smm_main"}
		matmulSetup(w, n, seed, 4*n*n*int64(bitsLen(n)))
		return w
	}

	// smm(env, c, kLo, kN, jc)
	b := u.Proc("smm", 5, stlib.JCWords)
	rec := b.NewLabel()
	b.LoadArg(isa.R0, 0)
	b.LoadArg(isa.R1, 1)
	b.LoadArg(isa.R2, 2)
	b.LoadArg(isa.R3, 3)
	b.LoadArg(isa.R7, 4)
	b.BgtI(isa.R3, spacemulKCut, rec)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.SetArg(3, isa.R3)
	b.Call("mm_kslice")
	b.SetArg(0, isa.R7)
	b.Call(stlib.ProcJCFinish)
	b.RetVoid()
	b.Bind(rec)
	b.Const(isa.T0, 2)
	b.Div(isa.R4, isa.R3, isa.T0)
	b.Load(isa.R6, isa.R0, 3)
	b.Mul(isa.R6, isa.R6, isa.R6)
	b.SetArg(0, isa.R6)
	b.Call("alloc")
	b.Mov(isa.R5, isa.RV)
	b.SetArg(0, isa.R5)
	b.Const(isa.T0, 0)
	b.SetArg(1, isa.T0)
	b.SetArg(2, isa.R6)
	b.Call("memset")
	b.LocalAddr(isa.T1, 0)
	b.SetArg(0, isa.T1)
	b.Const(isa.T0, 2)
	b.SetArg(1, isa.T0)
	b.Call(stlib.ProcJCInit)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.SetArg(3, isa.R4)
	b.LocalAddr(isa.T1, 0)
	b.SetArg(4, isa.T1)
	b.Fork("smm")
	b.Poll()
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R5)
	b.Add(isa.T0, isa.R2, isa.R4)
	b.SetArg(2, isa.T0)
	b.Sub(isa.T1, isa.R3, isa.R4)
	b.SetArg(3, isa.T1)
	b.LocalAddr(isa.T1, 0)
	b.SetArg(4, isa.T1)
	b.Fork("smm")
	b.Poll()
	b.LocalAddr(isa.T1, 0)
	b.SetArg(0, isa.T1)
	b.Call(stlib.ProcJCJoin)
	b.SetArg(0, isa.R1)
	b.SetArg(1, isa.R5)
	b.SetArg(2, isa.R6)
	b.Call("mat_add")
	b.SetArg(0, isa.R7)
	b.Call(stlib.ProcJCFinish)
	b.RetVoid()

	m := u.Proc("smm_main", 1, stlib.JCWords)
	m.LoadArg(isa.R0, 0)
	m.LocalAddr(isa.R1, 0)
	m.SetArg(0, isa.R1)
	m.Const(isa.T0, 1)
	m.SetArg(1, isa.T0)
	m.Call(stlib.ProcJCInit)
	m.SetArg(0, isa.R0)
	m.Load(isa.T0, isa.R0, 2)
	m.SetArg(1, isa.T0)
	m.Const(isa.T0, 0)
	m.SetArg(2, isa.T0)
	m.Load(isa.T0, isa.R0, 3)
	m.SetArg(3, isa.T0)
	m.SetArg(4, isa.R1)
	m.Fork("smm")
	m.Poll()
	m.SetArg(0, isa.R1)
	m.Call(stlib.ProcJCJoin)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	stlib.AddBoot(u, "smm_main", 1)
	w := &Workload{Name: "spacemul", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	matmulSetup(w, n, seed, 4*n*n*int64(bitsLen(n)))
	return w
}

// bitsLen returns ceil(log2(n))+1, used to budget spacemul's temporaries.
func bitsLen(n int64) int {
	b := 1
	for n > 1 {
		n /= 2
		b++
	}
	return b
}
