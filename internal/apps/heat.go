package apps

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stlib"
)

// heatKappa is the diffusion coefficient of the Jacobi stencil.
const heatKappa = 0.125

// heatChunkRows is the parallel grain (rows per forked chunk).
const heatChunkRows = 4

// Heat environment block:
//
//	env[0] current grid   env[1] next grid   env[2] nx   env[3] ny
//
// heat_main swaps env[0]/env[1] after every timestep.

// Heat builds the heat benchmark: Jacobi iteration of the 2D diffusion
// stencil over an nx×ny grid for steps timesteps, parallelized over row
// chunks with a join per step.
func Heat(nx, ny, steps int64, v Variant, seed uint64) *Workload {
	u := stUnit()
	addHeatRows(u, v == ST)

	if v == Seq {
		m := u.Proc("heat_main", 2, 0)
		tLoop := m.NewLabel()
		rLoop := m.NewLabel()
		rDone := m.NewLabel()
		done := m.NewLabel()
		m.LoadArg(isa.R0, 0)      // env
		m.LoadArg(isa.R1, 1)      // steps remaining
		m.Load(isa.R2, isa.R0, 3) // ny
		m.Bind(tLoop)
		m.BleI(isa.R1, 0, done)
		m.Const(isa.R3, 0) // y0
		m.Bind(rLoop)
		m.Bge(isa.R3, isa.R2, rDone)
		m.SetArg(0, isa.R0)
		m.SetArg(1, isa.R3)
		m.Const(isa.T0, heatChunkRows)
		m.SetArg(2, isa.T0)
		m.Call("heat_rows")
		m.AddI(isa.R3, isa.R3, heatChunkRows)
		m.Jmp(rLoop)
		m.Bind(rDone)
		// swap current and next
		m.Load(isa.T0, isa.R0, 0)
		m.Load(isa.T1, isa.R0, 1)
		m.Store(isa.R0, 0, isa.T1)
		m.Store(isa.R0, 1, isa.T0)
		m.AddI(isa.R1, isa.R1, -1)
		m.Jmp(tLoop)
		m.Bind(done)
		m.Const(isa.RV, 0)
		m.Ret(isa.RV)

		w := &Workload{Name: "heat", Variant: Seq, Procs: u.MustBuild(), Entry: "heat_main"}
		heatSetup(w, nx, ny, steps, seed)
		return w
	}

	// heat_step(env, y0, nyr, jc): recursive bisection over the row range —
	// a steal ships half of the remaining rows, so one timestep distributes
	// across p workers in O(log p) migrations rather than one per chunk.
	c := u.Proc("heat_step", 4, stlib.JCWords+stlib.CtxWords)
	rec := c.NewLabel()
	c.LoadArg(isa.R0, 0)
	c.LoadArg(isa.R1, 1) // y0
	c.LoadArg(isa.R2, 2) // nyr
	c.LoadArg(isa.R3, 3) // parent jc
	c.BgtI(isa.R2, heatChunkRows, rec)
	c.SetArg(0, isa.R0)
	c.SetArg(1, isa.R1)
	c.SetArg(2, isa.R2)
	c.Call("heat_rows")
	stlib.JCFinishInline(c, isa.R3)
	c.RetVoid()
	c.Bind(rec)
	c.Const(isa.T0, 2)
	c.Div(isa.R4, isa.R2, isa.T0) // h
	c.LocalAddr(isa.R5, 0)
	stlib.JCInitInline(c, isa.R5, 2)
	c.SetArg(0, isa.R0)
	c.SetArg(1, isa.R1)
	c.SetArg(2, isa.R4)
	c.SetArg(3, isa.R5)
	c.Fork("heat_step")
	c.Poll()
	c.SetArg(0, isa.R0)
	c.Add(isa.T0, isa.R1, isa.R4)
	c.SetArg(1, isa.T0)
	c.Sub(isa.T1, isa.R2, isa.R4)
	c.SetArg(2, isa.T1)
	c.SetArg(3, isa.R5)
	c.Fork("heat_step")
	c.Poll()
	stlib.JCJoinInline(c, isa.R5, stlib.JCWords)
	stlib.JCFinishInline(c, isa.R3)
	c.RetVoid()

	m := u.Proc("heat_main", 2, stlib.JCWords)
	tLoop := m.NewLabel()
	done := m.NewLabel()
	m.LoadArg(isa.R0, 0)
	m.LoadArg(isa.R1, 1)
	m.Load(isa.R2, isa.R0, 3) // ny
	m.LocalAddr(isa.R5, 0)
	m.Bind(tLoop)
	m.BleI(isa.R1, 0, done)
	stlib.JCInitInline(m, isa.R5, 1)
	m.SetArg(0, isa.R0)
	m.Const(isa.T0, 0)
	m.SetArg(1, isa.T0)
	m.SetArg(2, isa.R2)
	m.SetArg(3, isa.R5)
	m.Fork("heat_step")
	m.Poll()
	m.SetArg(0, isa.R5)
	m.Call(stlib.ProcJCJoin)
	m.Load(isa.T0, isa.R0, 0)
	m.Load(isa.T1, isa.R0, 1)
	m.Store(isa.R0, 0, isa.T1)
	m.Store(isa.R0, 1, isa.T0)
	m.AddI(isa.R1, isa.R1, -1)
	m.Jmp(tLoop)
	m.Bind(done)
	m.Const(isa.RV, 0)
	m.Ret(isa.RV)

	stlib.AddBoot(u, "heat_main", 2)
	w := &Workload{Name: "heat", Variant: ST, Procs: u.MustBuild(), Entry: stlib.ProcBoot}
	heatSetup(w, nx, ny, steps, seed)
	return w
}

// addHeatRows emits heat_rows(env, y0, nyc): compute rows [y0, y0+nyc) of
// the next grid — boundary rows and columns copy, interior cells apply the
// five-point stencil u' = u + κ·(up + down + left + right − 4u).
func addHeatRows(u *asm.Unit, poll bool) {
	b := u.Proc("heat_rows", 3, 0)
	yLoop := b.NewLabel()
	xLoop := b.NewLabel()
	cell := b.NewLabel()
	copyCell := b.NewLabel()
	xNext := b.NewLabel()
	xDone := b.NewLabel()
	yDone := b.NewLabel()

	b.LoadArg(isa.R0, 0)      // env
	b.LoadArg(isa.R1, 1)      // y
	b.LoadArg(isa.R2, 2)      // rows left
	b.Load(isa.R3, isa.R0, 0) // cur
	b.Load(isa.R4, isa.R0, 1) // next
	b.Load(isa.R5, isa.R0, 2) // nx
	b.Load(isa.R6, isa.R0, 3) // ny
	// clamp: rows left = min(nyc, ny - y0) handled by the loop bound
	b.Add(isa.R2, isa.R1, isa.R2) // yEnd = y0 + nyc

	b.Bind(yLoop)
	b.Bge(isa.R1, isa.R2, yDone)
	b.Bge(isa.R1, isa.R6, yDone)
	b.Const(isa.R7, 0) // x

	b.Bind(xLoop)
	b.Bge(isa.R7, isa.R5, xDone)
	// base = y*nx + x
	b.Mul(isa.T0, isa.R1, isa.R5)
	b.Add(isa.T0, isa.T0, isa.R7)
	// boundary?
	b.BeqI(isa.R7, 0, copyCell)
	b.AddI(isa.T7, isa.R5, -1)
	b.Beq(isa.R7, isa.T7, copyCell)
	b.BeqI(isa.R1, 0, copyCell)
	b.AddI(isa.T7, isa.R6, -1)
	b.Beq(isa.R1, isa.T7, copyCell)
	b.Jmp(cell)

	b.Bind(copyCell)
	b.Add(isa.T1, isa.R3, isa.T0)
	b.Load(isa.T2, isa.T1, 0)
	b.Add(isa.T1, isa.R4, isa.T0)
	b.Store(isa.T1, 0, isa.T2)
	b.Jmp(xNext)

	b.Bind(cell)
	b.Add(isa.T1, isa.R3, isa.T0) // &cur[base]
	b.Load(isa.T2, isa.T1, 0)     // c
	b.Sub(isa.T3, isa.T1, isa.R5)
	b.Load(isa.T3, isa.T3, 0) // up
	b.Add(isa.T4, isa.T1, isa.R5)
	b.Load(isa.T4, isa.T4, 0) // down
	b.FAdd(isa.T3, isa.T3, isa.T4)
	b.Load(isa.T4, isa.T1, -1) // left
	b.FAdd(isa.T3, isa.T3, isa.T4)
	b.Load(isa.T4, isa.T1, 1)      // right
	b.FAdd(isa.T3, isa.T3, isa.T4) // s = ((up+down)+left)+right
	b.ConstF(isa.T4, 4.0)
	b.FMul(isa.T4, isa.T4, isa.T2)
	b.FSub(isa.T3, isa.T3, isa.T4) // s - 4c
	b.ConstF(isa.T4, heatKappa)
	b.FMul(isa.T3, isa.T4, isa.T3)
	b.FAdd(isa.T3, isa.T2, isa.T3) // c + κ(s-4c)
	b.Add(isa.T1, isa.R4, isa.T0)
	b.Store(isa.T1, 0, isa.T3)

	b.Bind(xNext)
	if poll {
		// Cell back-edge: Feeley's method bounds the poll gap to a few
		// dozen instructions in the innermost loop.
		b.Poll()
	}
	b.AddI(isa.R7, isa.R7, 1)
	b.Jmp(xLoop)

	b.Bind(xDone)
	b.AddI(isa.R1, isa.R1, 1)
	b.Jmp(yLoop)

	b.Bind(yDone)
	b.RetVoid()
}

func heatSetup(w *Workload, nx, ny, steps int64, seed uint64) {
	init0 := randFloats(nx*ny, seed)
	// Reference simulation with identical operation order.
	cur := append([]float64(nil), init0...)
	next := make([]float64, nx*ny)
	for t := int64(0); t < steps; t++ {
		for y := int64(0); y < ny; y++ {
			for x := int64(0); x < nx; x++ {
				base := y*nx + x
				if x == 0 || x == nx-1 || y == 0 || y == ny-1 {
					next[base] = cur[base]
					continue
				}
				c := cur[base]
				s := cur[base-nx] + cur[base+nx]
				s += cur[base-1]
				s += cur[base+1]
				next[base] = c + heatKappa*(s-4.0*c)
			}
		}
		cur, next = next, cur
	}
	want := cur

	w.HeapWords = int(2*nx*ny) + 1<<10
	l := newHeapLayout(nx*ny, nx*ny, 4)
	a, bGrid, env := l.addrs[0], l.addrs[1], l.addrs[2]
	w.Setup = func(m *mem.Memory) ([]int64, error) {
		if err := l.alloc(m); err != nil {
			return nil, err
		}
		m.WriteFloats(a, init0)
		m.WriteWords(env, []int64{a, bGrid, nx, ny})
		return []int64{env, steps}, nil
	}
	w.Verify = func(m *mem.Memory, _ int64) error {
		// After an even/odd number of swaps, env[0] is the final grid.
		final := m.Load(env + 0)
		got := m.ReadFloats(final, nx*ny)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return fmt.Errorf("heat[%d] = %g, want %g", i, got[i], want[i])
			}
		}
		return nil
	}
}
