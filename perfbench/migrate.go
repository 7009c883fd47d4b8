package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// migrateWorkers are the virtual worker counts migrated jobs run at.
var migrateWorkers = []int{2, 4}

// migrateTuple is one quick-scale job a migrate operation captures and
// resumes.
type migrateTuple struct {
	app     string
	workers int
	seed    uint64
}

func (t migrateTuple) key() string {
	return fmt.Sprintf("app=%s|workers=%d|seed=%d", t.app, t.workers, t.seed)
}

// migrateOp is one scheduled operation: a tuple and the pick it yields at.
type migrateOp struct {
	tuple int
	pick  int64
}

// migrateBench captures a running job at a seeded pick boundary, moves the
// continuation through the snapshot codec and resumes it to completion.
type migrateBench struct {
	tuples []migrateTuple
	refs   []*core.Result // undisturbed core.Run per tuple
	rng    *rand.Rand
	order  []int
	ops    []migrateOp
}

// newMigrateBench computes every tuple's reference run; that is its set-up.
func newMigrateBench(appList []string, seed uint64) (*migrateBench, error) {
	b := &migrateBench{rng: rand.New(rand.NewPCG(seed, 0x31a7e))}
	for _, app := range appList {
		for _, wk := range migrateWorkers {
			b.tuples = append(b.tuples, migrateTuple{app: app, workers: wk, seed: b.rng.Uint64()})
		}
	}
	for _, t := range b.tuples {
		w, err := workloadFor(t.app, false)
		if err != nil {
			return nil, err
		}
		ref, err := core.Run(w, runConfig(t.workers, t.seed))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", t.key(), err)
		}
		b.refs = append(b.refs, ref)
	}
	// One untimed operation warms the codec path.
	if _, _, _, err := b.run(0, 1+b.refs[0].Picks/2); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// next schedules one more operation: the tuples in a fresh seeded order
// each round, each yielding at a seeded pick within its run.
func (b *migrateBench) next() int {
	k := len(b.ops)
	if k%len(b.tuples) == 0 {
		b.order = b.rng.Perm(len(b.tuples))
	}
	t := b.order[k%len(b.tuples)]
	b.ops = append(b.ops, migrateOp{tuple: t, pick: 1 + b.rng.Int64N(b.refs[t].Picks)})
	return k
}

// run times one capture → encode → decode → resume; building the workload
// is not part of it.
func (b *migrateBench) run(t int, pick int64) (*core.Result, int, time.Duration, error) {
	tp := b.tuples[t]
	w, err := workloadFor(tp.app, false)
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := runConfig(tp.workers, tp.seed)
	cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	t0 := time.Now()
	_, err = core.Run(w, cfg)
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		return nil, 0, 0, fmt.Errorf("%s: no yield at pick %d: %v", tp.key(), pick, err)
	}
	enc, err := snapshot.Encode(&snapshot.Snapshot{Key: tp.key(), Mach: ye.Boundary.Mach, Sched: ye.Boundary.Sched, Fault: ye.Boundary.Fault})
	if err != nil {
		return nil, 0, 0, err
	}
	snap, err := snapshot.Decode(enc)
	if err != nil {
		return nil, 0, 0, err
	}
	if snap.Key != tp.key() {
		return nil, 0, 0, fmt.Errorf("continuation key %q, want %q", snap.Key, tp.key())
	}
	cfg.Checkpoint = nil
	res, err := core.Resume(w, cfg, &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault})
	return res, len(enc), time.Since(t0), err
}

func (b *migrateBench) window(deadline time.Time) []sample {
	var out []sample
	for time.Now().Before(deadline) {
		k := b.next()
		op := b.ops[k]
		res, n, lat, err := b.run(op.tuple, op.pick)
		s := sample{tuple: k, end: time.Now(), lat: lat, bytes: n}
		switch {
		case err != nil:
			s.outcome = opError
		case !reflect.DeepEqual(res, b.refs[op.tuple]):
			s.outcome = wrongResult
		default:
			s.vcycles = res.WorkCycles
		}
		out = append(out, s)
	}
	return out
}

// check has nothing left to do: every resume was compared with its tuple's
// reference run as it finished.
func (b *migrateBench) check([]sample, uint64) {}

func (b *migrateBench) replay(r *recorder, k int, tracedFirst bool) (replayed, error) {
	op := b.ops[k]
	var rp replayed
	var real, dec *core.Result
	var rerr, derr error
	runReal := func() { real, _, rp.untraced, rerr = b.run(op.tuple, op.pick) }
	runDec := func() {
		tp := b.tuples[op.tuple]
		w, err := workloadFor(tp.app, false)
		if err != nil {
			derr = err
			return
		}
		r.begin(spanOp)
		defer r.end()
		dec, derr = migrateTraced(r, w, tp, op.pick, &rp.counts)
	}
	inOrder(tracedFirst, runDec, runReal)
	if err := errors.Join(rerr, derr); err != nil {
		return rp, err
	}
	ref := b.refs[op.tuple]
	rp.match = reflect.DeepEqual(real, ref) && reflect.DeepEqual(dec, ref)
	return rp, nil
}

func (b *migrateBench) close() {}
