package apps_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/postproc"
	"repro/internal/sched"
)

// The sequential kernels inside the benchmarks (insertion sort, merge, the
// bitboard search, ...) are programs in their own right; these tests drive
// them directly through the machine against host references.

// runKernel compiles the cilksort workload (which contains isort and merge)
// and runs the named procedure with raw arguments against prepared memory.
func runKernel(t *testing.T, entry string, setup func(m *mem.Memory) []int64, check func(m *mem.Memory, rv int64) error) {
	t.Helper()
	w := apps.Cilksort(4, apps.Seq, 1) // small instance; we only want the procs
	prog, err := postproc.Compile(w.Procs, postproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 14)
	args := setup(mm)
	m := machine.New(prog, mm, isa.X86(), 1, machine.Options{StackWords: 1 << 12})
	res, err := sched.Run(m, entry, args, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check(mm, res.RV); err != nil {
		t.Fatal(err)
	}
}

func TestIsortProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int64(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(rng.Intn(1000) - 500)
		}
		ok := true
		runKernel(t, "isort",
			func(m *mem.Memory) []int64 {
				a, err := m.Alloc(n)
				if err != nil {
					t.Fatal(err)
				}
				m.WriteWords(a, in)
				return []int64{a, n}
			},
			func(m *mem.Memory, _ int64) error {
				got := m.ReadWords(mem.Guard, n)
				want := slices.Clone(in)
				slices.Sort(want)
				ok = slices.Equal(got, want)
				return nil
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeProperty(t *testing.T) {
	f := func(seed int64, naRaw, nbRaw uint8) bool {
		na, nb := int64(naRaw%30)+1, int64(nbRaw%30)+1
		rng := rand.New(rand.NewSource(seed))
		a := make([]int64, na)
		b := make([]int64, nb)
		for i := range a {
			a[i] = int64(rng.Intn(100))
		}
		for i := range b {
			b[i] = int64(rng.Intn(100))
		}
		slices.Sort(a)
		slices.Sort(b)
		ok := true
		runKernel(t, "merge",
			func(m *mem.Memory) []int64 {
				aB, _ := m.Alloc(na)
				bB, _ := m.Alloc(nb)
				out, err := m.Alloc(na + nb)
				if err != nil {
					t.Fatal(err)
				}
				m.WriteWords(aB, a)
				m.WriteWords(bB, b)
				return []int64{aB, na, bB, nb, out}
			},
			func(m *mem.Memory, _ int64) error {
				got := m.ReadWords(mem.Guard+na+nb, na+nb)
				want := append(slices.Clone(a), b...)
				slices.Sort(want)
				ok = slices.Equal(got, want)
				return nil
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKnapsackAgainstDP cross-checks the branch-and-bound result against an
// independent dynamic-programming solver over several instances.
func TestKnapsackAgainstDP(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		n := 12 + int(seed)
		capacity := int64(20 + 3*seed)
		w := apps.Knapsack(n, capacity, apps.Seq, seed)
		res, err := core.Run(w, core.Config{Mode: core.Sequential})
		if err != nil {
			t.Fatal(err)
		}
		// Verify() already checks against the host branch and bound; here
		// we independently recompute by DP to guard both implementations.
		weights, values := apps.KnapItemsForTest(n, seed)
		if dp := knapDP(weights, values, capacity); dp != res.RV {
			t.Fatalf("seed %d: bb=%d dp=%d", seed, res.RV, dp)
		}
	}
}

func knapDP(weights, values []int64, capacity int64) int64 {
	best := make([]int64, capacity+1)
	for i := range weights {
		for c := capacity; c >= weights[i]; c-- {
			if v := best[c-weights[i]] + values[i]; v > best[c] {
				best[c] = v
			}
		}
	}
	return best[capacity]
}

// TestNQueensKnownCounts checks the classic sequence 1,0,0,2,10,4,40,92.
func TestNQueensKnownCounts(t *testing.T) {
	want := []int64{1, 0, 0, 2, 10, 4, 40, 92}
	for n := 1; n <= 8; n++ {
		res, err := core.Run(apps.NQueens(int64(n), apps.Seq), core.Config{Mode: core.Sequential})
		if err != nil {
			t.Fatal(err)
		}
		if res.RV != want[n-1] {
			t.Fatalf("nqueens(%d) = %d, want %d", n, res.RV, want[n-1])
		}
	}
}

// TestTreeAddDepths checks several tree depths in both variants.
func TestTreeAddDepths(t *testing.T) {
	for _, d := range []int64{0, 1, 3, 8} {
		for _, v := range []apps.Variant{apps.Seq, apps.ST} {
			w := apps.TreeAdd(d, v)
			mode := core.Sequential
			if v == apps.ST {
				mode = core.StackThreads
			}
			res, err := core.Run(w, core.Config{Mode: mode, CheckInvariants: true})
			if err != nil {
				t.Fatalf("depth %d %v: %v", d, v, err)
			}
			if want := int64(1)<<(d+1) - 1; res.RV != want {
				t.Fatalf("treeadd(%d) %v = %d, want %d", d, v, res.RV, want)
			}
		}
	}
}

// TestVariantsAgreeEverywhere compares Seq and ST results on every
// value-returning benchmark at small sizes.
func TestVariantsAgreeEverywhere(t *testing.T) {
	pairs := []struct {
		name string
		mk   func(v apps.Variant) *apps.Workload
	}{
		{"fib", func(v apps.Variant) *apps.Workload { return apps.Fib(13, v) }},
		{"knapsack", func(v apps.Variant) *apps.Workload { return apps.Knapsack(14, 30, v, 9) }},
		{"nqueens", func(v apps.Variant) *apps.Workload { return apps.NQueens(7, v) }},
		{"magic", func(v apps.Variant) *apps.Workload { return apps.Magic(v, 1) }},
		{"treeadd", func(v apps.Variant) *apps.Workload { return apps.TreeAdd(7, v) }},
	}
	for _, p := range pairs {
		seq, err := core.Run(p.mk(apps.Seq), core.Config{Mode: core.Sequential})
		if err != nil {
			t.Fatalf("%s seq: %v", p.name, err)
		}
		st, err := core.Run(p.mk(apps.ST), core.Config{Mode: core.StackThreads, Workers: 3, Seed: 5})
		if err != nil {
			t.Fatalf("%s st: %v", p.name, err)
		}
		if seq.RV != st.RV {
			t.Fatalf("%s: seq=%d st=%d", p.name, seq.RV, st.RV)
		}
	}
}
