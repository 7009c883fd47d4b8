package core_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// setupBenchApp is the quick-scale workload both setup legs run, at
// setupBenchWorkers virtual workers.
const (
	setupBenchApp     = "cilksort"
	setupBenchWorkers = 4
)

// BenchmarkSetup is the setup rung of the benchmark ladder: the host cost,
// with allocations, of what a job pays around the interpreter.
//
//   - prepare: machine construction plus the workload's memory setup, as
//     core.Run does before the first instruction, and the release after.
//   - migrate: capture at the middle pick, snapshot encode and decode, and
//     core.Resume to the end — two setups, the codec and a resumed run.
func BenchmarkSetup(b *testing.B) {
	w, err := figures.Workload(setupBenchApp, figures.Quick, apps.ST)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Mode: core.StackThreads, Workers: setupBenchWorkers, Seed: 1}
	b.Run("prepare", func(b *testing.B) {
		prog, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, _, err := core.Prepare(prog, w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			m.Mem.Release()
		}
	})
	b.Run("migrate", func(b *testing.B) {
		ref, err := core.Run(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := migrate(w, cfg, 1+ref.Picks/2)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				b.Fatalf("resumed result %+v, want %+v", res, ref)
			}
		}
	})
}

// migrate runs w until it yields at pick, moves the continuation through the
// snapshot codec and resumes it to the end.
func migrate(w *apps.Workload, cfg core.Config, pick int64) (*core.Result, error) {
	capture := cfg
	capture.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	_, err := core.Run(w, capture)
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		return nil, err
	}
	enc, err := snapshot.Encode(&snapshot.Snapshot{Mach: ye.Boundary.Mach, Sched: ye.Boundary.Sched, Fault: ye.Boundary.Fault})
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.Decode(enc)
	if err != nil {
		return nil, err
	}
	return core.Resume(w, cfg, &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault})
}
