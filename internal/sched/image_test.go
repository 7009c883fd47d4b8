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
// continuation it yields there. When from is non-nil the run resumes from
// that continuation instead of starting fresh.
func captureBoundary(t *testing.T, w *apps.Workload, cfg core.Config, from *sched.Boundary, pick int64) *sched.Boundary {
	t.Helper()
	cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	var err error
	if from != nil {
		_, err = core.Resume(w, cfg, from)
	} else {
		_, err = core.Run(w, cfg)
	}
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		t.Fatalf("%s pick=%d resumed=%t: expected a yield, got err=%v", w.Name, pick, from != nil, err)
	}
	return ye.Boundary
}

// TestContinuationImageEngineIndependent captures the same pick boundary P
// twice: directly, and after resuming from a capture at P/2. The resumed
// machine starts from an imported image, so its pages materialize in a
// different order than the direct run's; the two memory images and the
// encoded continuations must still be identical.
func TestContinuationImageEngineIndependent(t *testing.T) {
	mk := func() *apps.Workload { return apps.Fib(14, apps.ST) }
	cfg := core.Config{Mode: core.StackThreads, Workers: 4, Seed: 3}
	ref, err := core.Run(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pick := ref.Picks * 3 / 4
	direct := captureBoundary(t, mk(), cfg, nil, pick)
	half := captureBoundary(t, mk(), cfg, nil, pick/2)
	resumed := captureBoundary(t, mk(), cfg, half, pick)
	if !reflect.DeepEqual(direct.Mach.Mem, resumed.Mach.Mem) {
		t.Fatalf("memory images differ: direct pages %v, resumed pages %v", direct.Mach.Mem.Index, resumed.Mach.Mem.Index)
	}
	encode := func(b *sched.Boundary) []byte {
		enc, err := snapshot.Encode(&snapshot.Snapshot{Key: "fib", Mach: b.Mach, Sched: b.Sched, Fault: b.Fault})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if !bytes.Equal(encode(direct), encode(resumed)) {
		t.Fatal("equal boundaries encoded to different continuation bytes")
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
	b := captureBoundary(t, mk(), cfg, nil, ref.Picks/2)
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
