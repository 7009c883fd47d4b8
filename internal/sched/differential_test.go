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
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
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

// diffWorkloads builds one small instance of every apps workload.
func diffWorkloads() []func() *apps.Workload {
	return []func() *apps.Workload{
		func() *apps.Workload { return apps.Fib(12, apps.ST) },
		func() *apps.Workload { return apps.PingPong(12, apps.ST) },
		func() *apps.Workload { return apps.NQueens(6, apps.ST) },
		func() *apps.Workload { return apps.TreeAdd(6, apps.ST) },
		func() *apps.Workload { return apps.Staircase(6, 8) },
		func() *apps.Workload { return apps.Cilksort(64, apps.ST, 5) },
		func() *apps.Workload { return apps.FFT(64, apps.ST, 3) },
		func() *apps.Workload { return apps.Heat(8, 8, 4, apps.ST, 2) },
		func() *apps.Workload { return apps.Knapsack(10, 50, apps.ST, 7) },
		func() *apps.Workload { return apps.LU(8, apps.ST, 4) },
		func() *apps.Workload { return apps.Magic(apps.ST, 11) },
		func() *apps.Workload { return apps.Notempmul(8, apps.ST, 6) },
		func() *apps.Workload { return apps.Blockedmul(8, apps.ST, 6) },
		func() *apps.Workload { return apps.Spacemul(8, apps.ST, 6) },
	}
}

// diffRun is one engine run's complete observable state.
type diffRun struct {
	res    *core.Result
	events []sched.TraceEvent
	out    []byte
	obs    []byte
}

// runEngine executes the workload under one engine with full observability
// attached and returns everything an engine could influence.
func runEngine(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, engine core.Engine) diffRun {
	t.Helper()
	w := mk()
	var events sched.EventLog
	var out bytes.Buffer
	collector := obs.New()
	res, err := core.Run(w, core.Config{
		Mode:            mode,
		Workers:         workers,
		Seed:            seed,
		Engine:          engine,
		HostProcs:       4,
		CheckInvariants: true,
		SegmentedStacks: workers > 1,
		Events:          &events,
		Obs:             collector,
		Out:             &out,
		// The live auditor rides along on the whole differential matrix:
		// any §3.2 or conservation violation fails the run. Auditing
		// changes no bytes, so the engine comparison stays exact.
		Audit: invariant.New(64),
	})
	if err != nil {
		t.Fatalf("%s mode=%v workers=%d seed=%d engine=%v: %v",
			w.Name, mode, workers, seed, engine, err)
	}
	return diffRun{res: res, events: events.Sorted(), out: out.Bytes(), obs: obsDump(collector)}
}

// runEnginePlain is runEngine without the observability collector: the
// obs-free interpreter paths compare on Result, program output and the
// sorted event log, which is everything such a run produces.
func runEnginePlain(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, engine core.Engine) diffRun {
	t.Helper()
	w := mk()
	var events sched.EventLog
	var out bytes.Buffer
	res, err := core.Run(w, rtConfig(mode, workers, seed, engine, &events, nil, &out))
	if err != nil {
		t.Fatalf("%s mode=%v workers=%d seed=%d engine=%v: %v",
			w.Name, mode, workers, seed, engine, err)
	}
	return diffRun{res: res, events: events.Sorted(), out: out.Bytes()}
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

// diffCompare asserts a candidate engine's run is byte-identical to the
// sequential oracle's in every observable dimension.
func diffCompare(t *testing.T, ctx string, engine core.Engine, seq, got diffRun) {
	t.Helper()
	if !reflect.DeepEqual(seq.res, got.res) {
		t.Fatalf("%s: %v Result diverged:\nseq: %+v\ngot: %+v", ctx, engine, seq.res, got.res)
	}
	if !reflect.DeepEqual(seq.events, got.events) {
		t.Fatalf("%s: %v event log diverged (%d vs %d events)",
			ctx, engine, len(seq.events), len(got.events))
	}
	if !bytes.Equal(seq.out, got.out) {
		t.Fatalf("%s: %v program output diverged:\nseq: %q\ngot: %q", ctx, engine, seq.out, got.out)
	}
	if !bytes.Equal(seq.obs, got.obs) {
		t.Fatalf("%s: %v obs snapshot diverged:\nseq:\n%s\ngot:\n%s", ctx, engine, seq.obs, got.obs)
	}
}

// TestEngineDifferential is the equivalence matrix — the differential
// oracle of every non-sequential engine: for every workload × mode ×
// worker count × seed, the throughput engine must produce
// byte-identical Result, program output, sorted event log, and
// observability state (metrics, phase attribution, profile, trace) to the
// sequential engine, with the invariant checker on.
func TestEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix")
	}
	seeds := diffSeeds()
	for wi, mk := range diffWorkloads() {
		name := mk().Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
				for _, workers := range []int{1, 2, 4, 8} {
					for _, seed := range seeds {
						// Thin the heaviest combinations: every workload
						// still covers every mode and worker count.
						if len(seeds) <= 3 && wi >= 5 && seed != seeds[workers%len(seeds)] {
							continue
						}
						seq := runEngine(t, mk, mode, workers, seed, core.EngineSequential)
						ctx := fmt.Sprintf("mode=%v workers=%d seed=%d", mode, workers, seed)
						got := runEngine(t, mk, mode, workers, seed, core.EngineThroughput)
						diffCompare(t, ctx, core.EngineThroughput, seq, got)
					}
				}
			}
		})
	}
}

// TestParallelEngineDeterminism reruns the non-sequential engines against
// themselves: host scheduling must never leak into results.
func TestParallelEngineDeterminism(t *testing.T) {
	mk := func() *apps.Workload { return apps.NQueens(7, apps.ST) }
	for _, engine := range []core.Engine{core.EngineThroughput} {
		t.Run(engine.String(), func(t *testing.T) {
			var first diffRun
			for i := 0; i < 3; i++ {
				r := runEngine(t, mk, core.StackThreads, 6, 9, engine)
				if i == 0 {
					first = r
					continue
				}
				if !reflect.DeepEqual(first.res, r.res) || !reflect.DeepEqual(first.events, r.events) ||
					!bytes.Equal(first.obs, r.obs) {
					t.Fatalf("%v engine run %d diverged from run 0", engine, i)
				}
			}
		})
	}
}
