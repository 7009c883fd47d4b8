package machine

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/mem"
)

// imageTestStack is the stack of the one-worker machines these tests
// build: small, so the page table mem.NewReserved sets aside stays small
// too.
const imageTestStack = 4096

func newImageTestMemory() *mem.Memory { return mem.NewReserved(1024, imageTestStack+wlWords) }

func newImageTestMachine(prog *isa.Program, cost *isa.CostModel, opts Options) *Machine {
	opts.StackWords = imageTestStack
	return New(prog, newImageTestMemory(), cost, 1, opts)
}

// TestNewSharesDecodeImage pins that the per-pc tables are per program, not
// per machine: a second New for the same program, cost model and options
// reuses the first one's tables and allocates less than half of what the
// decode cache alone takes (the rest is the worker, and the page its
// local-storage cell materializes), while a different cost key gets tables
// of its own, equal to a fresh build.
func TestNewSharesDecodeImage(t *testing.T) {
	prog := apps.Cilksort(64, apps.ST, 1).MustCompile()
	opts := Options{Seed: 1}
	first := newImageTestMachine(prog, isa.SPARC(), opts)

	cost := isa.SPARC() // an equal cost model, not the same pointer
	memories := make([]*mem.Memory, 8)
	for i := range memories {
		memories[i] = newImageTestMemory()
	}
	var before, after runtime.MemStats
	var again *Machine
	runtime.ReadMemStats(&before)
	for _, mm := range memories {
		again = New(prog, mm, cost, 1, Options{Seed: 1, StackWords: imageTestStack})
	}
	runtime.ReadMemStats(&after)
	perNew := (after.TotalAlloc - before.TotalAlloc) / uint64(len(memories))
	decBytes := uint64(len(prog.Code)) * uint64(unsafe.Sizeof(decoded{}))
	t.Logf("%d pcs: decode cache %d B, New allocated %d B per call", len(prog.Code), decBytes, perNew)
	if perNew >= decBytes/2 {
		t.Errorf("a second New allocated %d B per call, want under %d B (half the %d-pc decode cache): the per-pc tables were rebuilt",
			perNew, decBytes/2, len(prog.Code))
	}
	if &again.dec[0] != &first.dec[0] || &again.descAt[0] != &first.descAt[0] {
		t.Error("a second New built its own per-pc tables")
	}

	cilk := newImageTestMachine(prog, isa.SPARC(), Options{Seed: 1, CilkCost: true})
	if &cilk.dec[0] == &first.dec[0] {
		t.Fatal("Cilk cost mode shares the StackThreads decode cache")
	}
	for _, m := range []*Machine{first, cilk} {
		k := newImageKey(m.Cost, &m.Opts)
		if fresh := buildImage(prog, &k); !reflect.DeepEqual(fresh.dec, m.dec) || !reflect.DeepEqual(fresh.descAt, m.descAt) {
			t.Errorf("cilk=%v: the shared tables differ from a fresh build", m.Opts.CilkCost)
		}
	}
}

// TestNewConcurrentFirstBuild builds machines for one fresh program from
// several goroutines at once: every machine must end up with the one shared
// image. Run under -race it also checks the build publishes safely.
func TestNewConcurrentFirstBuild(t *testing.T) {
	prog := apps.Fib(10, apps.ST).MustCompile()
	const n = 4
	got := make([]*Machine, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = newImageTestMachine(prog, isa.SPARC(), Options{Seed: uint64(i)})
		}(i)
	}
	wg.Wait()
	for i, m := range got[1:] {
		if &m.dec[0] != &got[0].dec[0] {
			t.Fatalf("machine %d has a decode cache of its own", i+1)
		}
	}
}
