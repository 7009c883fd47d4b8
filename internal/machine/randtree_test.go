package machine_test

import (
	"reflect"
	"testing"

	"repro/internal/advprog"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stlib"
)

// Random-program fuzzing over plain fork trees: advprog with only the
// BlockStorm class, so every tree has random fan-out, compute and forced
// blocking suspensions but no attack constructs. They run through the whole
// pipeline on several worker counts with the invariant checker on.

// plainTree generates the plain fork tree for seed and returns it with its
// expected result and its blocker count. Each blocker parks on a gate its
// parent has not yet opened, so every run must suspend at least that often.
func plainTree(seed uint64) (p *advprog.Program, want, blockers int64) {
	p = advprog.FromSeed(seed, advprog.BlockStorm)
	var count func(n *advprog.Node)
	count = func(n *advprog.Node) {
		blockers += int64(n.Blockers)
		for _, c := range n.Children {
			count(c)
		}
	}
	count(p.Root)
	return p, p.Expected(), blockers
}

// TestRandomTreesFastPathCycleExact is the fast-path equivalence property:
// on random fork trees, a machine running with the batched fast path must be
// cycle- and state-identical to one charging every instruction individually
// (Options.NoFastPath), at every budget boundary and every scheduler event,
// not just at the end. The runs are sliced into odd 97-cycle budgets so
// EvBudget lands mid-batch.
func TestRandomTreesFastPathCycleExact(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz")
	}
	for seed := int64(0); seed < 10; seed++ {
		lockstepRandomTree(t, seed, false, false)
	}
}

// TestRandomTreesFastPathObsExact is the same property with an
// obs.Collector attached to both machines, in both cost modes: batching
// under observability must leave every worker's attribution state (phase
// cycles, attributed total, sample count and next sample boundary) and the
// collector's profile, at the default and at short sample periods, identical to per-instruction execution at every
// boundary, while the fast machine really does run batches.
func TestRandomTreesFastPathObsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz")
	}
	for _, cilk := range []bool{false, true} {
		for seed := int64(0); seed < 10; seed++ {
			lockstepRandomTree(t, seed, cilk, true)
		}
	}
}

// lockstepRandomTree runs one random fork tree on a fast-path and a
// NoFastPath single-worker machine in 97-cycle slices and fails at the
// first boundary where their states differ.
func lockstepRandomTree(t *testing.T, seed int64, cilk, withObs bool) {
	t.Helper()
	p, want, blockers := plainTree(uint64(seed ^ 0x5eed))
	w := advprog.Workload(p)
	prog, err := w.Compile()
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}

	newWorker := func(noFast bool) (*machine.Worker, *obs.Collector) {
		var col *obs.Collector
		if withObs {
			col = obs.New()
			// Short prime periods put many sample boundaries inside
			// straight-line runs.
			col.SamplePeriod = []int64{obs.DefaultSamplePeriod, 37, 11}[seed%3]
		}
		m := machine.New(prog, mem.New(1<<10), isa.SPARC(), 1, machine.Options{
			StackWords: 1 << 13,
			NoFastPath: noFast,
			CilkCost:   cilk,
			Seed:       uint64(seed),
			Obs:        col,
		})
		args, err := w.Setup(m.Mem)
		if err != nil {
			t.Fatalf("seed %d: setup: %v", seed, err)
		}
		wk := m.Workers[0]
		wk.StartCall(prog.EntryOf[stlib.ProcBoot], args)
		return wk, col
	}
	wf, cf := newWorker(false)
	ws, cs := newWorker(true)

	same := func(step int) {
		t.Helper()
		if wf.PC != ws.PC || wf.Cycles != ws.Cycles || wf.Regs != ws.Regs ||
			wf.Stats != ws.Stats || wf.ReadyQ.Len() != ws.ReadyQ.Len() {
			t.Fatalf("seed %d cilk=%v step %d: fast/slow state diverged:\n  fast: pc=%d cycles=%d ready=%d stats=%+v\n  slow: pc=%d cycles=%d ready=%d stats=%+v",
				seed, cilk, step, wf.PC, wf.Cycles, wf.ReadyQ.Len(), wf.Stats,
				ws.PC, ws.Cycles, ws.ReadyQ.Len(), ws.Stats)
		}
		if !withObs {
			return
		}
		of, os := wf.Obs, ws.Obs
		if of.Phase != os.Phase || of.AttributedTotal() != os.AttributedTotal() ||
			of.Samples != os.Samples || of.NextSample != os.NextSample {
			t.Fatalf("seed %d cilk=%v step %d (pc %d, cycles %d): obs diverged:\n  fast: phase=%v attributed=%d samples=%d next=%d\n  slow: phase=%v attributed=%d samples=%d next=%d",
				seed, cilk, step, wf.PC, wf.Cycles,
				of.Phase, of.AttributedTotal(), of.Samples, of.NextSample,
				os.Phase, os.AttributedTotal(), os.Samples, os.NextSample)
		}
		if pf, ps := cf.Profile(), cs.Profile(); !reflect.DeepEqual(pf, ps) {
			t.Fatalf("seed %d cilk=%v step %d: profiles diverged:\n  fast: %v\n  slow: %v", seed, cilk, step, pf, ps)
		}
	}

lockstep:
	for step := 0; ; step++ {
		if step > 10_000_000 {
			t.Fatalf("seed %d: runaway program", seed)
		}
		evF, evS := wf.Run(97), ws.Run(97)
		if evF != evS {
			t.Fatalf("seed %d step %d: events diverged: fast=%v slow=%v", seed, step, evF, evS)
		}
		same(step)
		switch evF {
		case machine.EvBudget, machine.EvPoll:
		case machine.EvBottom:
			for _, wk := range []*machine.Worker{wf, ws} {
				wk.Shrink()
				c := wk.ReadyQ.PopHead()
				if c == nil {
					t.Fatalf("seed %d step %d: deadlock at bottom", seed, step)
				}
				wk.StartThread(c)
			}
			same(step)
		case machine.EvHalt:
			break lockstep
		default:
			t.Fatalf("seed %d step %d: unexpected event %v (errs %v / %v)",
				seed, step, evF, wf.Err, ws.Err)
		}
	}
	if wf.Regs[isa.RV] != want || ws.Regs[isa.RV] != want {
		t.Fatalf("seed %d: acc fast=%d slow=%d want %d", seed, wf.Regs[isa.RV], ws.Regs[isa.RV], want)
	}
	if wf.Stats.Suspends < blockers || blockers == 0 {
		t.Fatalf("seed %d cilk=%v: %d suspensions for %d blockers; want at least one per blocker and some blocker",
			seed, cilk, wf.Stats.Suspends, blockers)
	}
	if wf.BatchedCycles() == 0 || ws.BatchedCycles() != 0 {
		t.Fatalf("seed %d cilk=%v obs=%v: batched cycles fast=%d slow=%d, want fast > 0 and slow 0",
			seed, cilk, withObs, wf.BatchedCycles(), ws.BatchedCycles())
	}
	if withObs && !cilk && wf.Obs.Phase[obs.PhaseEpilogue] == 0 {
		t.Fatalf("seed %d: no epilogue-check cycles attributed; the tree never ran an augmented epilogue", seed)
	}
}

func TestRandomForkTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz")
	}
	for seed := int64(0); seed < 25; seed++ {
		p, want, blockers := plainTree(uint64(seed))
		w := advprog.Workload(p)

		for _, workers := range []int{1, 3, 7} {
			for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
				res, err := core.Run(w, core.Config{
					Mode:            mode,
					Workers:         workers,
					Seed:            uint64(seed) + 13,
					CheckInvariants: true,
				})
				if err != nil {
					t.Fatalf("seed %d workers %d %v: %v", seed, workers, mode, err)
				}
				if res.RV != want {
					t.Fatalf("seed %d workers %d %v: acc=%d want %d", seed, workers, mode, res.RV, want)
				}
				var suspends int64
				for _, st := range res.Stats {
					suspends += st.Suspends
				}
				if suspends < blockers {
					t.Fatalf("seed %d workers %d %v: %d suspensions for %d blockers", seed, workers, mode, suspends, blockers)
				}
			}
		}
		// And under segmented stacks with small segments.
		res, err := core.Run(w, core.Config{
			Mode: core.StackThreads, Workers: 4, Seed: uint64(seed),
			SegmentedStacks: true, StackWords: 1 << 13, CheckInvariants: true,
		})
		if err != nil {
			t.Fatalf("seed %d segmented: %v", seed, err)
		}
		if res.RV != want {
			t.Fatalf("seed %d segmented: acc=%d want %d", seed, res.RV, want)
		}
	}
}
