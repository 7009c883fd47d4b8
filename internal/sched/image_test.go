package sched_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// captureBoundary runs cfg until pick boundary `pick` and returns the
// continuation it yields there.
func captureBoundary(t *testing.T, w *apps.Workload, cfg core.Config, pick int64) *sched.Boundary {
	t.Helper()
	cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	_, err := core.Run(w, cfg)
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		t.Fatalf("%s pick=%d engine=%v: expected a yield, got err=%v", w.Name, pick, cfg.Engine, err)
	}
	return ye.Boundary
}

// TestContinuationImageEngineIndependent captures the same pick boundary
// once on the sequential engine, whose stores go straight to shared memory,
// and once on the throughput engine, whose stores reach shared memory
// through chain commits. The two memories arrive at their contents through
// different page materialization histories; their images and the encoded
// continuations must still be identical.
func TestContinuationImageEngineIndependent(t *testing.T) {
	mk := func() *apps.Workload { return apps.Fib(14, apps.ST) }
	const workers, seed = 4, 3
	cfg := func(engine core.Engine) core.Config {
		return core.Config{Mode: core.StackThreads, Workers: workers, Seed: seed, Engine: engine, HostProcs: 4}
	}
	ref, err := core.Run(mk(), cfg(core.EngineSequential))
	if err != nil {
		t.Fatal(err)
	}
	pick := ref.Picks * 3 / 4
	seq := captureBoundary(t, mk(), cfg(core.EngineSequential), pick)
	var cont sched.Contention
	tcfg := cfg(core.EngineThroughput)
	tcfg.Contention = &cont
	tp := captureBoundary(t, mk(), tcfg, pick)
	if cont.ChainCommits.Load() == 0 {
		t.Fatal("the throughput capture committed no chain segment")
	}
	if !reflect.DeepEqual(seq.Mach.Mem, tp.Mach.Mem) {
		t.Fatalf("memory images differ: sequential pages %v, throughput pages %v", seq.Mach.Mem.Index, tp.Mach.Mem.Index)
	}
	encode := func(b *sched.Boundary) []byte {
		enc, err := snapshot.Encode(&snapshot.Snapshot{Key: "fib", Mach: b.Mach, Sched: b.Sched, Fault: b.Fault})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if !bytes.Equal(encode(seq), encode(tp)) {
		t.Fatal("equal boundaries encoded to different continuation bytes across engines")
	}
}

// TestContinuationSizeFullFib pins the size of a real continuation: an
// 8-worker full-scale fib captured mid-run, with its observability state,
// encodes to at most 256 KiB, although its workers reserve 8M words of
// stack. Continuations carry only the pages a run touched.
func TestContinuationSizeFullFib(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale capture")
	}
	mk := func() *apps.Workload {
		w, err := figures.Workload("fib", figures.Full, apps.ST)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cfg := core.Config{Mode: core.StackThreads, Workers: 8, Seed: 1}
	ref, err := core.Run(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	cfg.Obs = col
	b := captureBoundary(t, mk(), cfg, ref.Picks/2)
	enc, err := snapshot.Encode(&snapshot.Snapshot{Key: "fib", Mach: b.Mach, Sched: b.Sched, Fault: b.Fault, Obs: col.ExportState()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("continuation: %d bytes, %d nonzero memory pages", len(enc), len(b.Mach.Mem.Index))
	if len(enc) > 256<<10 {
		t.Fatalf("mid-run 8-worker full fib continuation encodes to %d bytes (%d memory pages), want at most %d",
			len(enc), len(b.Mach.Mem.Index), 256<<10)
	}
}
