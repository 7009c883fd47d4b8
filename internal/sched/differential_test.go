package sched_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
)

// diffSeeds returns the seeds the differential matrix sweeps. PR CI runs a
// few; the nightly workflow widens the sweep with ST_DIFF_SEEDS.
func diffSeeds() []uint64 {
	n := 3
	if v, err := strconv.Atoi(os.Getenv("ST_DIFF_SEEDS")); err == nil && v > 0 {
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	return seeds
}

// diffWorkloads builds one small instance of every apps workload in the
// given variant (staircase has only an ST build).
func diffWorkloads() []func(apps.Variant) *apps.Workload {
	return []func(apps.Variant) *apps.Workload{
		func(v apps.Variant) *apps.Workload { return apps.Fib(12, v) },
		func(v apps.Variant) *apps.Workload { return apps.PingPong(12, v) },
		func(v apps.Variant) *apps.Workload { return apps.NQueens(6, v) },
		func(v apps.Variant) *apps.Workload { return apps.TreeAdd(6, v) },
		func(apps.Variant) *apps.Workload { return apps.Staircase(6, 8) },
		func(v apps.Variant) *apps.Workload { return apps.Cilksort(64, v, 5) },
		func(v apps.Variant) *apps.Workload { return apps.FFT(64, v, 3) },
		func(v apps.Variant) *apps.Workload { return apps.Heat(8, 8, 4, v, 2) },
		func(v apps.Variant) *apps.Workload { return apps.Knapsack(10, 50, v, 7) },
		func(v apps.Variant) *apps.Workload { return apps.LU(8, v, 4) },
		func(v apps.Variant) *apps.Workload { return apps.Magic(v, 11) },
		func(v apps.Variant) *apps.Workload { return apps.Notempmul(8, v, 6) },
		func(v apps.Variant) *apps.Workload { return apps.Blockedmul(8, v, 6) },
		func(v apps.Variant) *apps.Workload { return apps.Spacemul(8, v, 6) },
	}
}

// diffRun is one run's complete observable state. obs and timeline are
// nil for an obs-free run.
type diffRun struct {
	res      *core.Result
	out      []byte
	obs      []byte
	timeline []byte
}

// runEngine executes the workload with full observability attached and
// returns everything the run produces.
func runEngine(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int, seed uint64) diffRun {
	t.Helper()
	return runWith(t, mk, mode, workers, seed, obs.New())
}

// runSampled is runEngine with the profiler sampling every period virtual
// cycles. The sampler is a batching deadline, so a different period splits
// the batched tier's straight-line runs at different points; the profile
// differs but the scheduling events must not.
func runSampled(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, period int64) diffRun {
	t.Helper()
	c := obs.New()
	c.SamplePeriod = period
	return runWith(t, mk, mode, workers, seed, c)
}

// runEnginePlain is runEngine without the observability collector: the
// obs-free interpreter paths compare on Result and program output, which
// is everything such a run produces.
func runEnginePlain(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int, seed uint64) diffRun {
	t.Helper()
	return runWith(t, mk, mode, workers, seed, nil)
}

// runWith runs the workload under rtConfig with the given collector (nil
// for an obs-free run). The live auditor rides along on every run: any
// §3.2 or conservation violation fails it. Auditing changes no bytes, so
// comparisons stay exact.
func runWith(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, collector *obs.Collector) diffRun {
	t.Helper()
	w := mk()
	var out bytes.Buffer
	res, err := core.Run(w, rtConfig(mode, workers, seed, collector, &out))
	if err != nil {
		t.Fatalf("%s mode=%v workers=%d seed=%d obs=%t: %v",
			w.Name, mode, workers, seed, collector != nil, err)
	}
	r := diffRun{res: res, out: out.Bytes()}
	if collector != nil {
		r.obs = obsDump(collector)
		r.timeline = timelineDump(collector)
	}
	return r
}

// obsDump renders a collector to a canonical byte form: the metrics
// snapshot, the phase totals, the profile, and the full Chrome trace (which
// serializes every event with its arguments in emission order).
func obsDump(c *obs.Collector) []byte {
	var b bytes.Buffer
	snap := c.Metrics.Snapshot()
	fmt.Fprintf(&b, "metrics=%+v\n", snap)
	fmt.Fprintf(&b, "phases=%v samples=%d makespan=%d total=%d\n",
		c.PhaseTotals(), c.Samples(), c.Makespan(), c.TotalCycles())
	for _, p := range c.Profile() {
		fmt.Fprintf(&b, "prof %+v\n", p)
	}
	c.WriteReport(&b)
	if err := c.WriteChromeTrace(&b); err != nil {
		fmt.Fprintf(&b, "trace error: %v", err)
	}
	return b.Bytes()
}

// timelineDump renders a collector's migration timeline.
func timelineDump(c *obs.Collector) []byte {
	var b bytes.Buffer
	c.WriteTimeline(&b)
	return b.Bytes()
}

// diffCompare asserts a candidate run is byte-identical to the reference
// run in every observable dimension.
func diffCompare(t *testing.T, ctx string, want, got diffRun) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Fatalf("%s: Result diverged:\nwant: %+v\ngot:  %+v", ctx, want.res, got.res)
	}
	if !bytes.Equal(want.out, got.out) {
		t.Fatalf("%s: program output diverged:\nwant: %q\ngot:  %q", ctx, want.out, got.out)
	}
	if !bytes.Equal(want.timeline, got.timeline) {
		t.Fatalf("%s: timeline diverged:\nwant:\n%s\ngot:\n%s", ctx, want.timeline, got.timeline)
	}
	if !bytes.Equal(want.obs, got.obs) {
		t.Fatalf("%s: obs snapshot diverged:\nwant:\n%s\ngot:\n%s", ctx, want.obs, got.obs)
	}
}

// TestEngineDifferential is the equivalence matrix: for every workload ×
// mode × worker count × seed, the run with observability attached must
// produce byte-identical Result and program output to the same tuple run
// obs-free, and byte-identical Result, program output and migration
// timeline to the same tuple sampled every 97 cycles instead of 521, with
// the invariant checker on. The obs sampler is a batching deadline, so the
// legs split straight-line runs at different points and take different
// paths through the batched tier: the matrix checks that observation never
// changes a run. Sequential mode runs the sequential elision on one worker.
func TestEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix")
	}
	type leg struct {
		mode    core.Mode
		workers int
	}
	var legs []leg
	for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
		for _, workers := range []int{1, 2, 4, 8} {
			legs = append(legs, leg{mode, workers})
		}
	}
	legs = append(legs, leg{core.Sequential, 1})
	seeds := diffSeeds()
	for wi, build := range diffWorkloads() {
		name := build(apps.ST).Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, l := range legs {
				mode, workers := l.mode, l.workers
				v := apps.ST
				if mode == core.Sequential {
					v = apps.Seq
				}
				mk := func() *apps.Workload { return build(v) }
				for _, seed := range seeds {
					// Thin the heaviest combinations: every workload
					// still covers every mode and worker count.
					if len(seeds) <= 3 && wi >= 5 && seed != seeds[workers%len(seeds)] {
						continue
					}
					observed := runEngine(t, mk, mode, workers, seed)
					ctx := fmt.Sprintf("mode=%v workers=%d seed=%d", mode, workers, seed)
					plain := runEnginePlain(t, mk, mode, workers, seed)
					// The obs-free leg has no collector to compare; every
					// other dimension must match.
					plain.obs, plain.timeline = observed.obs, observed.timeline
					diffCompare(t, ctx, observed, plain)
					// The profile depends on the period; the events must not.
					fine := runSampled(t, mk, mode, workers, seed, 97)
					fine.obs = observed.obs
					diffCompare(t, ctx+" sample=97", observed, fine)
				}
			}
		})
	}
}

// TestParallelEngineDeterminism reruns one multi-worker tuple three times:
// host scheduling must never leak into results.
func TestParallelEngineDeterminism(t *testing.T) {
	mk := func() *apps.Workload { return apps.NQueens(7, apps.ST) }
	first := runEngine(t, mk, core.StackThreads, 6, 9)
	for i := 1; i < 3; i++ {
		r := runEngine(t, mk, core.StackThreads, 6, 9)
		diffCompare(t, fmt.Sprintf("rerun %d", i), first, r)
	}
}
