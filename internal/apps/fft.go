package apps

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stlib"
)

// FFT builds the fft benchmark: recursive radix-2 decimation-in-time
// Cooley-Tukey over n complex points (n a power of two), with both halves
// forked. Scratch arrays t1/t2 hold the even/odd shuffle; the twiddle
// factors come from the sin/cos library builtins.
func FFT(n int64, v Variant, seed uint64) *Workload {
	if n&(n-1) != 0 || n < 2 {
		panic("fft: n must be a power of two >= 2")
	}
	u := stUnit()

	if v == Seq {
		addFFT(u, false)
		m := u.Proc("fft_main", 5, 0)
		for i := 0; i < 5; i++ {
			m.LoadArg(isa.T0, i)
			m.SetArg(i, isa.T0)
		}
		m.Call("fft")
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)
		w := &Workload{Name: "fft", Variant: Seq, Procs: u.MustBuild(), Entry: "fft_main"}
		fftSetup(w, n, seed)
		return w
	}

	addFFT(u, true)
	m := u.Proc("fft_main", 5, stlib.JCWords)
	m.LocalAddr(isa.R0, 0)
	m.SetArg(0, isa.R0)
	m.Const(isa.T0, 1)
	m.SetArg(1, isa.T0)
	m.Call(stlib.ProcJCInit)
	for i := 0; i < 5; i++ {
		m.LoadArg(isa.T0, i)
		m.SetArg(i, isa.T0)
	}
	m.SetArg(5, isa.R0)
	m.Fork("fft")
	m.Poll()
	m.SetArg(0, isa.R0)
	m.Call(stlib.ProcJCJoin)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)
	stlib.AddBoot(u, "fft_main", 5)
	w := &Workload{Name: "fft", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	fftSetup(w, n, seed)
	return w
}

// addFFT emits fft(re, im, t1, t2, n[, jc]).
func addFFT(u *asm.Unit, st bool) {
	nArgs := 5
	nLocals := 0
	if st {
		nArgs, nLocals = 6, stlib.JCWords
	}
	b := u.Proc("fft", nArgs, nLocals)
	rec := b.NewLabel()
	shuf := b.NewLabel()
	shufDone := b.NewLabel()
	comb := b.NewLabel()
	combDone := b.NewLabel()

	b.LoadArg(isa.R0, 0) // re
	b.LoadArg(isa.R1, 1) // im
	b.LoadArg(isa.R2, 2) // t1
	b.LoadArg(isa.R3, 3) // t2
	b.LoadArg(isa.R4, 4) // n
	if st {
		b.LoadArg(isa.R7, 5) // parent jc
	}
	b.BgtI(isa.R4, 1, rec)
	if st {
		b.SetArg(0, isa.R7)
		b.Call(stlib.ProcJCFinish)
	}
	b.RetVoid()

	b.Bind(rec)
	b.Const(isa.T0, 2)
	b.Div(isa.R5, isa.R4, isa.T0) // h

	// Shuffle: t1/t2 get evens in [0,h) and odds in [h,n).
	b.Const(isa.T6, 0) // i
	b.Bind(shuf)
	b.Bge(isa.T6, isa.R5, shufDone)
	b.Add(isa.T0, isa.T6, isa.T6) // 2i
	b.Add(isa.T1, isa.R0, isa.T0)
	b.Load(isa.T2, isa.T1, 0) // re[2i]
	b.Add(isa.T3, isa.R2, isa.T6)
	b.Store(isa.T3, 0, isa.T2)
	b.Load(isa.T2, isa.T1, 1) // re[2i+1]
	b.Add(isa.T3, isa.T3, isa.R5)
	b.Store(isa.T3, 0, isa.T2)
	b.Add(isa.T1, isa.R1, isa.T0)
	b.Load(isa.T2, isa.T1, 0) // im[2i]
	b.Add(isa.T3, isa.R3, isa.T6)
	b.Store(isa.T3, 0, isa.T2)
	b.Load(isa.T2, isa.T1, 1) // im[2i+1]
	b.Add(isa.T3, isa.T3, isa.R5)
	b.Store(isa.T3, 0, isa.T2)
	b.AddI(isa.T6, isa.T6, 1)
	b.Jmp(shuf)
	b.Bind(shufDone)
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R2)
	b.SetArg(2, isa.R4)
	b.Call("memcpy")
	b.SetArg(0, isa.R1)
	b.SetArg(1, isa.R3)
	b.SetArg(2, isa.R4)
	b.Call("memcpy")

	// Recurse on the halves (each half uses its own half of the scratch).
	if st {
		b.LocalAddr(isa.T1, 0)
		b.SetArg(0, isa.T1)
		b.Const(isa.T0, 2)
		b.SetArg(1, isa.T0)
		b.Call(stlib.ProcJCInit)
	}
	b.SetArg(0, isa.R0)
	b.SetArg(1, isa.R1)
	b.SetArg(2, isa.R2)
	b.SetArg(3, isa.R3)
	b.SetArg(4, isa.R5)
	if st {
		b.LocalAddr(isa.T1, 0)
		b.SetArg(5, isa.T1)
		b.Fork("fft")
		b.Poll()
	} else {
		b.Call("fft")
	}
	b.Add(isa.T0, isa.R0, isa.R5)
	b.SetArg(0, isa.T0)
	b.Add(isa.T0, isa.R1, isa.R5)
	b.SetArg(1, isa.T0)
	b.Add(isa.T0, isa.R2, isa.R5)
	b.SetArg(2, isa.T0)
	b.Add(isa.T0, isa.R3, isa.R5)
	b.SetArg(3, isa.T0)
	b.SetArg(4, isa.R5)
	if st {
		b.LocalAddr(isa.T1, 0)
		b.SetArg(5, isa.T1)
		b.Fork("fft")
		b.Poll()
		b.LocalAddr(isa.T1, 0)
		b.SetArg(0, isa.T1)
		b.Call(stlib.ProcJCJoin)
	} else {
		b.Call("fft")
	}

	// Combine. R6 = -2π/n (bits), R4 reused as i, R2/R3 free as wr/wi.
	b.ConstF(isa.T0, -2*math.Pi)
	b.ItoF(isa.T1, isa.R4)
	b.FDiv(isa.T0, isa.T0, isa.T1)
	b.Mov(isa.R6, isa.T0)
	b.Const(isa.R4, 0) // i
	b.Bind(comb)
	b.Bge(isa.R4, isa.R5, combDone)
	b.ItoF(isa.T0, isa.R4)
	b.FMul(isa.T0, isa.T0, isa.R6) // angle
	b.SetArg(0, isa.T0)
	b.Call("cos")
	b.Mov(isa.R2, isa.RV) // wr
	b.ItoF(isa.T0, isa.R4)
	b.FMul(isa.T0, isa.T0, isa.R6)
	b.SetArg(0, isa.T0)
	b.Call("sin")
	b.Mov(isa.R3, isa.RV) // wi
	// even/odd loads
	b.Add(isa.T0, isa.R0, isa.R4)
	b.Load(isa.T1, isa.T0, 0) // er
	b.Add(isa.T0, isa.R1, isa.R4)
	b.Load(isa.T2, isa.T0, 0) // ei
	b.Add(isa.T0, isa.R0, isa.R4)
	b.Add(isa.T0, isa.T0, isa.R5)
	b.Load(isa.T3, isa.T0, 0) // or
	b.Add(isa.T0, isa.R1, isa.R4)
	b.Add(isa.T0, isa.T0, isa.R5)
	b.Load(isa.T4, isa.T0, 0) // oi
	// tr = wr*or - wi*oi ; ti = wr*oi + wi*or
	b.FMul(isa.T5, isa.R2, isa.T3)
	b.FMul(isa.T6, isa.R3, isa.T4)
	b.FSub(isa.T5, isa.T5, isa.T6) // tr
	b.FMul(isa.T6, isa.R2, isa.T4)
	b.FMul(isa.T0, isa.R3, isa.T3)
	b.FAdd(isa.T6, isa.T6, isa.T0) // ti
	// write back
	b.FAdd(isa.T0, isa.T1, isa.T5)
	b.Add(isa.T3, isa.R0, isa.R4)
	b.Store(isa.T3, 0, isa.T0)
	b.FAdd(isa.T0, isa.T2, isa.T6)
	b.Add(isa.T3, isa.R1, isa.R4)
	b.Store(isa.T3, 0, isa.T0)
	b.FSub(isa.T0, isa.T1, isa.T5)
	b.Add(isa.T3, isa.R0, isa.R4)
	b.Add(isa.T3, isa.T3, isa.R5)
	b.Store(isa.T3, 0, isa.T0)
	b.FSub(isa.T0, isa.T2, isa.T6)
	b.Add(isa.T3, isa.R1, isa.R4)
	b.Add(isa.T3, isa.T3, isa.R5)
	b.Store(isa.T3, 0, isa.T0)
	b.AddI(isa.R4, isa.R4, 1)
	b.Jmp(comb)
	b.Bind(combDone)
	if st {
		b.SetArg(0, isa.R7)
		b.Call(stlib.ProcJCFinish)
	}
	b.RetVoid()
}

func fftSetup(w *Workload, n int64, seed uint64) {
	re := randFloats(n, seed)
	im := randFloats(n, seed+1)
	// Reference: naive DFT.
	wantRe := make([]float64, n)
	wantIm := make([]float64, n)
	for k := int64(0); k < n; k++ {
		for t := int64(0); t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			wantRe[k] += re[t]*c - im[t]*s
			wantIm[k] += re[t]*s + im[t]*c
		}
	}

	w.HeapWords = int(4*n) + 1<<10
	l := newHeapLayout(n, n, n, n)
	reB, imB, t1, t2 := l.addrs[0], l.addrs[1], l.addrs[2], l.addrs[3]
	w.Setup = func(m *mem.Memory) ([]int64, error) {
		if err := l.alloc(m); err != nil {
			return nil, err
		}
		m.WriteFloats(reB, re)
		m.WriteFloats(imB, im)
		return []int64{reB, imB, t1, t2, n}, nil
	}
	w.Verify = func(m *mem.Memory, _ int64) error {
		gr := m.ReadFloats(reB, n)
		gi := m.ReadFloats(imB, n)
		scale := math.Sqrt(float64(n))
		for i := range gr {
			if math.Abs(gr[i]-wantRe[i]) > 1e-6*scale || math.Abs(gi[i]-wantIm[i]) > 1e-6*scale {
				return fmt.Errorf("fft[%d] = (%g,%g), want (%g,%g)", i, gr[i], gi[i], wantRe[i], wantIm[i])
			}
		}
		return nil
	}
}
