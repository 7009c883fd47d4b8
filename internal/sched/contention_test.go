package sched

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
)

// TestContentionCountersTrackSpeculation runs the scheduler with a
// Contention sink and a Progress view attached and checks both report what
// the run did: picks and work on the progress view, batched-tier cycles on
// the sink. Attaching the sinks must not perturb the result.
func TestContentionCountersTrackSpeculation(t *testing.T) {
	w := apps.Fib(18, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(cont *Contention, prog2 *obs.Progress) *Result {
		m := machine.New(prog, mem.New(1<<20), isa.SPARC(), 4, machine.Options{Seed: 1})
		res, err := Run(m, w.Entry, w.Args, Config{
			Mode: ModeST, Seed: 1, Contention: cont, Progress: prog2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cont := &Contention{}
	progress := &obs.Progress{}
	res := run(cont, progress)
	snap := cont.Snapshot()
	if progress.Picks.Load() == 0 {
		t.Error("progress saw no picks")
	}
	if got := progress.WorkCycles.Load(); got <= 0 || got > res.WorkCycles {
		t.Errorf("final progress work = %d, want in (0, %d]", got, res.WorkCycles)
	}
	if snap.BatchedCycles <= 0 || snap.BatchedCycles > res.WorkCycles {
		t.Errorf("batched-tier cycles = %d, want in (0, %d]", snap.BatchedCycles, res.WorkCycles)
	}
	if snap.ReferenceCycles <= 0 || snap.BatchedCycles+snap.ReferenceCycles > res.WorkCycles {
		t.Errorf("reference-path cycles = %d (batched %d), want > 0 with the sum at most %d",
			snap.ReferenceCycles, snap.BatchedCycles, res.WorkCycles)
	}
	if bare := run(nil, nil); !reflect.DeepEqual(bare, res) {
		t.Errorf("result drift with sinks attached:\n  with: %+v\n  bare: %+v", res, bare)
	}
}

// TestContentionNilIsDisabled proves the nil-sink path stays alive.
func TestContentionNilIsDisabled(t *testing.T) {
	var c *Contention
	if s := c.Snapshot(); s != (ContentionSnapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}
