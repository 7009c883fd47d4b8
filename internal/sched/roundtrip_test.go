package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/advprog"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// Round-trip property: a run captured at ANY pick boundary, serialized
// through the snapshot codec, deserialized and resumed must be
// byte-identical in every observable dimension (Result, program output,
// obs state with its event stream) to the undisturbed run. This is what makes
// continuations safe to checkpoint to disk and ship between cluster nodes.

// rtConfig builds the config every differential and round-trip run uses,
// so all comparisons hold to the same byte-identity standard.
func rtConfig(mode core.Mode, workers int, seed uint64,
	collector *obs.Collector, out *bytes.Buffer) core.Config {
	return core.Config{
		Mode:            mode,
		Workers:         workers,
		Seed:            seed,
		CheckInvariants: true,
		SegmentedStacks: workers > 1,
		Obs:             collector,
		Out:             out,
		Audit:           invariant.New(64),
	}
}

// captureAt runs the workload until pick boundary `pick`, yields there, and
// returns the continuation with its partial artifacts as encoded snapshot
// bytes — the full serialize leg. A nil collector captures an obs-free run.
func captureAt(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, pick int64, collector *obs.Collector) []byte {
	t.Helper()
	w := mk()
	var out bytes.Buffer
	cfg := rtConfig(mode, workers, seed, collector, &out)
	cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	_, err := core.Run(w, cfg)
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		t.Fatalf("%s pick=%d: expected a yield, got err=%v", w.Name, pick, err)
	}
	var obsState *obs.CollectorState
	if collector != nil {
		obsState = collector.ExportState()
	}
	enc, err := snapshot.Encode(&snapshot.Snapshot{
		Key:     fmt.Sprintf("%s|mode=%v|workers=%d|seed=%d", w.Name, mode, workers, seed),
		TraceID: "rt-test",
		Mach:    ye.Boundary.Mach,
		Sched:   ye.Boundary.Sched,
		Fault:   ye.Boundary.Fault,
		Obs:     obsState,
		Out:     bytes.Clone(out.Bytes()),
	})
	if err != nil {
		t.Fatalf("%s pick=%d: encode: %v", w.Name, pick, err)
	}
	return enc
}

// resumeFrom decodes an encoded snapshot and resumes it, returning the
// finished run's complete observable state. A snapshot that carries no
// collector state resumes obs-free, as it was captured.
func resumeFrom(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, enc []byte) diffRun {
	t.Helper()
	snap, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	w := mk()
	var out bytes.Buffer
	out.Write(snap.Out)
	var collector *obs.Collector
	if snap.Obs != nil {
		collector = obs.New()
		if err := collector.ImportState(snap.Obs); err != nil {
			t.Fatalf("obs import: %v", err)
		}
	}
	cfg := rtConfig(mode, workers, seed, collector, &out)
	res, err := core.Resume(w, cfg, &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault})
	if err != nil {
		t.Fatalf("%s: resume: %v", w.Name, err)
	}
	got := diffRun{res: res, out: out.Bytes()}
	if collector != nil {
		got.obs = obsDump(collector)
		got.timeline = timelineDump(collector)
	}
	return got
}

// TestRoundTripEveryBoundary sweeps every pick boundary of one small run:
// capture → encode → decode → restore → run must reproduce the undisturbed
// bytes no matter where the run was cut. It sweeps twice: with the obs
// collector attached, and obs-free, where the interpreter's batched tier
// runs without sample-boundary exits and the comparison covers Result and
// program output.
func TestRoundTripEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip sweep")
	}
	mk := func() *apps.Workload { return apps.Fib(8, apps.ST) }
	const mode, workers, seed = core.StackThreads, 2, 1
	for _, withObs := range []bool{true, false} {
		run := runEnginePlain
		if withObs {
			run = runEngine
		}
		undisturbed := run(t, mk, mode, workers, seed)
		picks := undisturbed.res.Picks
		if picks < 2 {
			t.Fatalf("run too small to exercise boundaries: %d picks", picks)
		}
		step := int64(1)
		if picks > 120 {
			step = picks / 120
		}
		for pick := int64(1); pick <= picks; pick += step {
			var collector *obs.Collector
			if withObs {
				collector = obs.New()
			}
			enc := captureAt(t, mk, mode, workers, seed, pick, collector)
			got := resumeFrom(t, mk, mode, workers, seed, enc)
			ctx := fmt.Sprintf("fib obs=%t pick=%d/%d", withObs, pick, picks)
			diffCompare(t, ctx, undisturbed, got)
		}
	}
}

// TestRoundTripMatrix extends the differential matrix through the codec:
// workloads × modes × worker counts × seeds, each captured at two
// pseudo-random pick boundaries.
func TestRoundTripMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip matrix")
	}
	workloads := []func() *apps.Workload{
		func() *apps.Workload { return apps.Fib(12, apps.ST) },
		func() *apps.Workload { return apps.NQueens(6, apps.ST) },
		func() *apps.Workload { return apps.Staircase(6, 8) },
		func() *apps.Workload { return apps.Cilksort(64, apps.ST, 5) },
		func() *apps.Workload { return apps.Heat(8, 8, 4, apps.ST, 2) },
	}
	seeds := diffSeeds()
	for wi, mk := range workloads {
		name := mk().Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
				for _, workers := range []int{2, 4} {
					for _, seed := range seeds {
						undisturbed := runEngine(t, mk, mode, workers, seed)
						picks := undisturbed.res.Picks
						if picks < 1 {
							t.Fatalf("%s: no pick boundaries", name)
						}
						rng := rand.New(rand.NewSource(int64(seed)<<8 | int64(wi)))
						for i := 0; i < 2; i++ {
							pick := 1 + rng.Int63n(picks)
							ctx := fmt.Sprintf("mode=%v workers=%d seed=%d pick=%d/%d",
								mode, workers, seed, pick, picks)
							enc := captureAt(t, mk, mode, workers, seed, pick, obs.New())
							got := resumeFrom(t, mk, mode, workers, seed, enc)
							diffCompare(t, ctx, undisturbed, got)
						}
					}
				}
			}
		})
	}
}

// TestRoundTripRandprog runs generated plain fork trees (advprog with only
// the BlockStorm class: forced blocking suspensions, random fan-out and
// compute) through the same property.
func TestRoundTripRandprog(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip fuzz")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := advprog.FromSeed(uint64(seed), advprog.BlockStorm)
		want := p.Expected()
		mk := func() *apps.Workload { return advprog.Workload(p) }
		workers := 2 + int(seed%3)
		undisturbed := runEngine(t, mk, core.StackThreads, workers, uint64(seed))
		if undisturbed.res.RV != want {
			t.Fatalf("seed %d: undisturbed acc=%d want %d", seed, undisturbed.res.RV, want)
		}
		var suspends int64
		for _, st := range undisturbed.res.Stats {
			suspends += st.Suspends
		}
		if suspends == 0 {
			t.Fatalf("seed %d: no suspensions; the tree forced no blocking", seed)
		}
		picks := undisturbed.res.Picks
		for i := 0; i < 2; i++ {
			pick := 1 + rng.Int63n(picks)
			ctx := fmt.Sprintf("randtree seed=%d workers=%d pick=%d/%d", seed, workers, pick, picks)
			enc := captureAt(t, mk, core.StackThreads, workers, uint64(seed), pick, obs.New())
			got := resumeFrom(t, mk, core.StackThreads, workers, uint64(seed), enc)
			diffCompare(t, ctx, undisturbed, got)
		}
	}
}

// TestPeriodicCheckpointResume exercises the serving-path shape: a run
// checkpoints itself every N cycles through a sink (as stserve will), and a
// later process resumes from any stored checkpoint to the identical result.
func TestPeriodicCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip periodic")
	}
	mk := func() *apps.Workload { return apps.Fib(14, apps.ST) }
	const mode, workers, seed = core.StackThreads, 4, 3
	undisturbed := runEngine(t, mk, mode, workers, seed)

	// Checkpointing run: the sink serializes each boundary together with the
	// partial artifacts at that instant, exactly as the server's sink does.
	w := mk()
	var out bytes.Buffer
	collector := obs.New()
	cfg := rtConfig(mode, workers, seed, collector, &out)
	var stored [][]byte
	cfg.Checkpoint = &sched.Checkpoint{
		EveryCycles: undisturbed.res.WorkCycles / 5,
		Sink: func(b *sched.Boundary) error {
			enc, err := snapshot.Encode(&snapshot.Snapshot{
				Key:   "periodic",
				Mach:  b.Mach,
				Sched: b.Sched,
				Fault: b.Fault,
				Obs:   collector.ExportState(),
				Out:   bytes.Clone(out.Bytes()),
			})
			if err != nil {
				return err
			}
			stored = append(stored, enc)
			return nil
		},
	}
	res, err := core.Run(w, cfg)
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	// The checkpointing run itself must be byte-identical to the undisturbed
	// one — capture is pure observation.
	withCkpt := diffRun{res: res, out: out.Bytes(), obs: obsDump(collector), timeline: timelineDump(collector)}
	diffCompare(t, "checkpointing run", undisturbed, withCkpt)
	if len(stored) < 2 {
		t.Fatalf("expected several periodic checkpoints, got %d", len(stored))
	}
	for i, enc := range stored {
		got := resumeFrom(t, mk, mode, workers, seed, enc)
		diffCompare(t, fmt.Sprintf("resume from checkpoint %d/%d", i+1, len(stored)), undisturbed, got)
	}
}
