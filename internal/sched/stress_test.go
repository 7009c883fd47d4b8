package sched_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/sched"
)

// stressSeeds returns how many seeds the stress sweep covers: 12 by
// default, widened by the nightly workflow through ST_STRESS_SEEDS.
func stressSeeds() uint64 {
	if v, err := strconv.Atoi(os.Getenv("ST_STRESS_SEEDS")); err == nil && v > 0 {
		return uint64(v)
	}
	return 12
}

// TestStressManySeeds runs blocking-heavy workloads across many scheduler
// seeds with the invariant checker on: every seed produces a different
// interleaving of steals, suspensions and remote finishes.
func TestStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	mk := []func() *apps.Workload{
		func() *apps.Workload { return apps.Fib(13, apps.ST) },
		func() *apps.Workload { return apps.PingPong(15, apps.ST) },
		func() *apps.Workload { return apps.NQueens(6, apps.ST) },
		func() *apps.Workload { return apps.TreeAdd(6, apps.ST) },
		func() *apps.Workload { return apps.Staircase(8, 10) },
	}
	for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
		for seed := uint64(0); seed < stressSeeds(); seed++ {
			for _, f := range mk {
				w := f()
				_, err := core.Run(w, core.Config{
					Mode:            mode,
					Workers:         7,
					Seed:            seed,
					CheckInvariants: true,
				})
				if err != nil {
					t.Fatalf("%s mode=%v seed=%d: %v", w.Name, mode, seed, err)
				}
			}
		}
	}
}

// TestStealYoungestPolicyCorrect runs the ablation policy across seeds and
// every benchmark: it must stay correct (only slower). Stealing the youngest
// thread suspends threads at whatever poll point they reached, and a
// restart restores only R0..R7, so this also checks that no app keeps a
// live value in a caller-save register across a poll. A one-worker
// suspend-churn run adds spurious suspensions at the same poll points.
func TestStealYoungestPolicyCorrect(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		res, err := core.Run(apps.Fib(14, apps.ST), core.Config{
			Mode:            core.StackThreads,
			Workers:         5,
			Seed:            seed,
			StealYoungest:   true,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.RV != 377 {
			t.Fatalf("seed %d: rv=%d", seed, res.RV)
		}
	}
	churn, err := fault.ParsePlan("suspend-churn:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range figures.BenchNames {
		t.Run(name, func(t *testing.T) {
			run := func(ctx string, cfg core.Config) {
				t.Helper()
				w, err := figures.Workload(name, figures.Quick, apps.ST)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Mode, cfg.Seed, cfg.CheckInvariants = core.StackThreads, 1, true
				if _, err := core.Run(w, cfg); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				run(fmt.Sprintf("steal-youngest workers=%d", workers),
					core.Config{Workers: workers, StealYoungest: true})
			}
			run("suspend-churn workers=1", core.Config{Workers: 1, Fault: fault.New(churn)})
		})
	}
}

// TestReadyQTailPreferred checks the LTC detail of Figure 12: when a victim
// has queued contexts, a steal is served from the readyq tail without
// disturbing the victim's stack (no suspends attributable to migration).
func TestReadyQTailPreferred(t *testing.T) {
	// PingPong keeps worker 0's readyq busy (children resumed by finish
	// enter the tail); a second worker steals from it.
	res, err := core.Run(apps.PingPong(60, apps.ST), core.Config{
		Mode:    core.StackThreads,
		Workers: 2,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Skip("schedule produced no steals; nothing to assert")
	}
	// Sanity only: the run completed with steals and correct output — the
	// detailed queue behaviour is asserted at the unit level in machine.
	if res.RV != 42 {
		t.Fatalf("rv=%d", res.RV)
	}
}

// TestDeterminismAcrossModesAndPolicies fixes seeds and checks exact
// reproducibility for every mode/policy combination.
func TestDeterminismAcrossModesAndPolicies(t *testing.T) {
	type key struct {
		mode  core.Mode
		young bool
	}
	for _, k := range []key{
		{core.StackThreads, false},
		{core.StackThreads, true},
		{core.Cilk, false},
	} {
		var first *core.Result
		for i := 0; i < 2; i++ {
			res, err := core.Run(apps.NQueens(7, apps.ST), core.Config{
				Mode:          k.mode,
				Workers:       6,
				Seed:          9,
				StealYoungest: k.young,
			})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
			} else if first.Time != res.Time || first.Steals != res.Steals || first.Instrs != res.Instrs {
				t.Fatalf("%+v: runs diverged: (%d,%d,%d) vs (%d,%d,%d)", k,
					first.Time, first.Steals, first.Instrs, res.Time, res.Steals, res.Instrs)
			}
		}
	}
}

// TestModeString covers the Mode stringer.
func TestModeString(t *testing.T) {
	if sched.ModeST.String() != "st" || sched.ModeCilk.String() != "cilk" {
		t.Fatal("mode names changed")
	}
}
