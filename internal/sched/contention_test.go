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

// TestContentionCountersTrackSpeculation runs the throughput engine with a
// Contention sink and a Progress view attached and cross-checks the counts
// against the white-box chain hook: the host-side diagnostics must agree
// with what the engine actually did, and must not perturb the result on
// either engine.
func TestContentionCountersTrackSpeculation(t *testing.T) {
	w := apps.Fib(18, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine Engine, cont *Contention, prog2 *obs.Progress) *Result {
		m := machine.New(prog, mem.New(1<<20), isa.SPARC(), 4, machine.Options{Seed: 1})
		res, err := Run(m, w.Entry, w.Args, Config{
			Mode: ModeST, Seed: 1, Engine: engine, HostProcs: 4,
			Contention: cont, Progress: prog2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var hookCommits, hookReruns int64
	testHookChainStats = func(c, r int64) { hookCommits, hookReruns = c, r }
	defer func() { testHookChainStats = nil }()

	cont := &Contention{}
	progress := &obs.Progress{}
	res := run(EngineThroughput, cont, progress)
	snap := cont.Snapshot()

	if snap.ChainCommits != hookCommits || snap.ChainReruns != hookReruns {
		t.Errorf("contention (commits=%d reruns=%d) disagrees with hook (commits=%d reruns=%d)",
			snap.ChainCommits, snap.ChainReruns, hookCommits, hookReruns)
	}
	if snap.ChainEpochs == 0 || snap.ChainSegments < snap.ChainCommits {
		t.Errorf("implausible epoch accounting: %+v", snap)
	}
	if progress.Picks.Load() == 0 {
		t.Error("progress saw no picks")
	}
	if got := progress.WorkCycles.Load(); got <= 0 || got > res.WorkCycles {
		t.Errorf("final progress work = %d, want in (0, %d]", got, res.WorkCycles)
	}
	if snap.BatchedCycles == 0 {
		t.Error("no cycles reported on the batched tier")
	}

	// Attaching the sinks must not change the run's bytes, on either engine.
	if bare := run(EngineThroughput, nil, nil); !reflect.DeepEqual(bare, res) {
		t.Errorf("result drift with sinks attached:\n  with: %+v\n  bare: %+v", res, bare)
	}
	seqCont := &Contention{}
	seqRes := run(EngineSequential, seqCont, nil)
	if seqCont.Snapshot().BatchedCycles == 0 {
		t.Error("sequential engine: no cycles reported on the batched tier")
	}
	if bare := run(EngineSequential, nil, nil); !reflect.DeepEqual(bare, seqRes) {
		t.Errorf("sequential engine: result drift with a sink attached:\n  with: %+v\n  bare: %+v", seqRes, bare)
	}
}

// TestContentionNilIsDisabled proves the nil-sink path stays alive.
func TestContentionNilIsDisabled(t *testing.T) {
	var c *Contention
	if s := c.Snapshot(); s != (ContentionSnapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}
