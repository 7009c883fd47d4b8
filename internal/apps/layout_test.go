package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// memoryVerified lists the workloads whose Verify reads the output from
// memory, each with the address of one output word after a run.
func memoryVerified(v apps.Variant) []struct {
	w   *apps.Workload
	out func(m *mem.Memory, args []int64) mem.Addr
} {
	type tc = struct {
		w   *apps.Workload
		out func(m *mem.Memory, args []int64) mem.Addr
	}
	arg0 := func(_ *mem.Memory, args []int64) mem.Addr { return args[0] }
	// env[k] names the output block.
	env := func(k int64) func(m *mem.Memory, args []int64) mem.Addr {
		return func(m *mem.Memory, args []int64) mem.Addr { return m.Load(args[0] + k) }
	}
	return []tc{
		{apps.Cilksort(300, v, 11), arg0},
		{apps.FFT(64, v, 33), arg0},
		{apps.Heat(10, 10, 4, v, 31), env(0)},
		{apps.LU(10, v, 32), env(0)},
		{apps.Notempmul(10, v, 21), env(2)},
		{apps.Spacemul(10, v, 23), env(2)},
		{apps.Blockedmul(10, v, 22), env(2)},
	}
}

// TestVerifyRejectsCorruptOutput: Verify is bound at construction over the
// fixed heap layout. It accepts a clean run's final memory, and rejects it
// once one output word is changed.
func TestVerifyRejectsCorruptOutput(t *testing.T) {
	for _, v := range []apps.Variant{apps.Seq, apps.ST} {
		for _, c := range memoryVerified(v) {
			t.Run(c.w.Name+"/"+v.String(), func(t *testing.T) {
				w := c.w
				prog, err := w.Compile()
				if err != nil {
					t.Fatal(err)
				}
				m := machine.New(prog, mem.New(w.HeapWords), isa.SPARC(), 2, machine.Options{Seed: 1})
				args, err := w.Setup(m.Mem)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sched.Run(m, w.Entry, args, sched.Config{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(m.Mem, res.RV); err != nil {
					t.Fatalf("clean run rejected: %v", err)
				}
				a := c.out(m.Mem, args) + 3
				m.Mem.Store(a, m.Mem.Load(a)^(1<<62))
				if err := w.Verify(m.Mem, res.RV); err == nil {
					t.Fatalf("output word %d changed, Verify accepted it", a)
				}
			})
		}
	}
}

// TestSetupNeedsFreshMemory: Setup refuses a memory whose heap already has
// an allocation, since its blocks would miss the layout Verify is bound to.
func TestSetupNeedsFreshMemory(t *testing.T) {
	for _, c := range memoryVerified(apps.ST) {
		m := mem.New(c.w.HeapWords + 1)
		if _, err := m.Alloc(1); err != nil {
			t.Fatal(err)
		}
		_, err := c.w.Setup(m)
		if err == nil || !strings.Contains(err.Error(), "fresh memory") {
			t.Errorf("%s: Setup on a used memory: err = %v, want a fresh-memory error", c.w.Name, err)
		}
	}
}
