// Package apps contains the benchmark programs of the paper's evaluation
// (Section 8.2), written in the assembler DSL: the Cilk distribution
// benchmarks ported to StackThreads (cilksort, notempmul, knapsack, fib,
// heat, lu, fft, spacemul, blockedmul, magic) plus small kernels used by
// tests. Every workload comes in two variants:
//
//   - Seq: the sequential elision — forks become plain calls and
//     synchronization disappears. This is the "C" baseline of Figure 21.
//   - ST: the StackThreads version — ASYNC_CALL forks, join counters, and
//     poll points inserted per Feeley's method (at thread-creation
//     boundaries).
//
// The Cilk baseline runs the ST code under the Cilk cost/scheduling mode of
// the runtime (see DESIGN.md for the substitution argument).
package apps

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/postproc"
	"repro/internal/stlib"
)

// Variant selects the compilation/runtime flavor of a workload.
type Variant int

// Workload variants.
const (
	// Seq is the sequential elision compiled without postprocessing.
	Seq Variant = iota
	// ST is the StackThreads version: postprocessed, forked, joined.
	ST
)

func (v Variant) String() string {
	switch v {
	case Seq:
		return "seq"
	case ST:
		return "st"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Workload is one runnable benchmark instance: compiled procedures, the
// entry point, heap demand, input setup, and output verification.
//
// A constructed Workload is immutable: Setup writes only the memory it is
// given and Verify reads only the memory it is given, so one Workload may
// serve any number of runs, concurrently. Setup must be handed a fresh
// memory (see mem.New); its heap layout is then a pure function of the
// workload, and Verify is bound over that layout at construction.
type Workload struct {
	Name    string
	Variant Variant
	Procs   []*isa.Proc
	// Units optionally partitions Procs into compilation units for the
	// postprocessor's per-unit augmentation criteria (nil: one unit).
	Units [][]*isa.Proc
	// Entry is the procedure the harness starts (the boot shim for ST).
	Entry string
	// Args are the entry's arguments; Setup may extend or replace them.
	Args []int64
	// HeapWords is the shared-heap demand of Setup plus the program.
	HeapWords int
	// Setup populates a fresh simulated memory and returns the entry
	// arguments. A nil Setup means Args is final.
	Setup func(m *mem.Memory) ([]int64, error)
	// Verify checks the run's output given the final memory and the
	// program's return value. A nil Verify accepts anything.
	Verify func(m *mem.Memory, rv int64) error

	compileOnce sync.Once
	prog        *isa.Program
	compileErr  error
}

// Compile postprocesses and links the workload with settings appropriate to
// its variant: the ST variant is always augmented, the sequential elision
// never (it is plain compiler output, like the paper's C baselines). The
// program and error are memoized: every call returns the first call's
// results, so Procs and Units must not change once Compile has run. The
// program is shared and must not be modified.
func (w *Workload) Compile() (*isa.Program, error) {
	w.compileOnce.Do(func() {
		opt := postproc.Options{Augment: w.Variant == ST}
		if w.Units != nil {
			w.prog, w.compileErr = postproc.CompileUnits(w.Units, opt)
		} else {
			w.prog, w.compileErr = postproc.Compile(w.Procs, opt)
		}
	})
	return w.prog, w.compileErr
}

// MustCompile is Compile panicking on error (host programming bugs).
func (w *Workload) MustCompile() *isa.Program {
	p, err := w.Compile()
	if err != nil {
		panic(err)
	}
	return p
}

// heapLayout is the fixed heap layout of a workload's Setup: the sizes of
// the blocks it allocates, in order, and the addresses they land at.
// mem.Alloc is a bump allocator starting at mem.Guard on a fresh memory, so
// the addresses are a pure function of the sizes, and a constructor binds
// its Verify over them once.
type heapLayout struct {
	sizes, addrs []int64
}

func newHeapLayout(sizes ...int64) heapLayout {
	l := heapLayout{sizes: sizes, addrs: make([]int64, len(sizes))}
	next := mem.Guard
	for i, n := range sizes {
		l.addrs[i] = next
		next += n
	}
	return l
}

// alloc allocates the layout's blocks on m and fails unless each lands at
// its fixed address, which holds only on a fresh memory.
func (l heapLayout) alloc(m *mem.Memory) error {
	for i, n := range l.sizes {
		a, err := m.Alloc(n)
		if err != nil {
			return err
		}
		if a != l.addrs[i] {
			return fmt.Errorf("apps: heap block %d allocated at %d, want %d: Setup needs a fresh memory", i, a, l.addrs[i])
		}
	}
	return nil
}

// stUnit creates a unit pre-populated with the join library and returns it.
func stUnit() *asm.Unit {
	u := asm.NewUnit()
	stlib.AddJoinLib(u)
	return u
}

// finishST makes a Workload for an ST-variant unit whose top procedure is
// main(argc args): it adds the boot shim and builds.
func finishST(u *asm.Unit, name, mainProc string, argc int, args []int64) *Workload {
	stlib.AddBoot(u, mainProc, argc)
	return &Workload{
		Name:    name,
		Variant: ST,
		Procs:   u.MustBuild(),
		Entry:   stlib.ProcBoot,
		Args:    args,
	}
}
