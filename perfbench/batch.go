package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
)

// workloadFor builds a figure app's StackThreads variant at quick or full
// scale.
func workloadFor(app string, full bool) (*apps.Workload, error) {
	sc := figures.Quick
	if full {
		sc = figures.Full
	}
	return figures.Workload(app, sc, apps.ST)
}

// batchWorkers is the virtual worker count of every batch run.
const batchWorkers = 4

// batchTuple is one core.Run: an app and its seed.
type batchTuple struct {
	app  string
	seed uint64
}

// batchBench runs core.Run back to back on one caller.
type batchBench struct {
	apps    []string
	rng     *rand.Rand
	tuples  []batchTuple
	results []*core.Result // window result per tuple
}

func newBatchBench(appList []string, seed uint64) (*batchBench, error) {
	b := &batchBench{apps: append([]string(nil), appList...), rng: rand.New(rand.NewPCG(seed, 0xba7c4))}
	warm := rand.New(rand.NewPCG(seed, 0x3a53))
	for i := 0; i < 2; i++ {
		if _, _, err := b.run(batchTuple{app: b.apps[i%len(b.apps)], seed: warm.Uint64()}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

// next schedules one more tuple: the app list in a fresh seeded order each
// round.
func (b *batchBench) next() int {
	k := len(b.tuples)
	if k%len(b.apps) == 0 {
		b.rng.Shuffle(len(b.apps), func(i, j int) { b.apps[i], b.apps[j] = b.apps[j], b.apps[i] })
	}
	b.tuples = append(b.tuples, batchTuple{app: b.apps[k%len(b.apps)], seed: b.rng.Uint64()})
	b.results = append(b.results, nil)
	return k
}

// run times one core.Run; building the workload is not part of it.
func (b *batchBench) run(t batchTuple) (*core.Result, time.Duration, error) {
	w, err := workloadFor(t.app, true)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := core.Run(w, runConfig(batchWorkers, t.seed))
	return res, time.Since(t0), err
}

func (b *batchBench) window(deadline time.Time) []sample {
	var out []sample
	for time.Now().Before(deadline) {
		k := b.next()
		res, lat, err := b.run(b.tuples[k])
		s := sample{tuple: k, end: time.Now(), lat: lat}
		if err != nil {
			s.outcome = opError
		} else {
			s.vcycles = res.WorkCycles
			b.results[k] = res
		}
		out = append(out, s)
	}
	return out
}

// check re-runs a seeded sample of the window's tuples; a run whose Result
// differs from the window's fails.
func (b *batchBench) check(samples []sample, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xc43c))
	for _, i := range rng.Perm(len(samples))[:min(2, len(samples))] {
		s := samples[i]
		if s.outcome != okOp {
			continue
		}
		res, _, err := b.run(b.tuples[s.tuple])
		if err != nil || !reflect.DeepEqual(res, b.results[s.tuple]) {
			markWrong(samples, s.tuple)
		}
	}
}

func (b *batchBench) replay(r *recorder, t int, tracedFirst bool) (replayed, error) {
	tp := b.tuples[t]
	var rp replayed
	var real, dec *core.Result
	var rerr, derr error
	runReal := func() { real, rp.untraced, rerr = b.run(tp) }
	runDec := func() {
		w, err := workloadFor(tp.app, true)
		if err != nil {
			derr = err
			return
		}
		r.begin(spanOp)
		defer r.end()
		dec, _, derr = runTraced(r, w, runConfig(batchWorkers, tp.seed), &rp.counts)
	}
	inOrder(tracedFirst, runDec, runReal)
	if err := errors.Join(rerr, derr); err != nil {
		return rp, err
	}
	rp.match = reflect.DeepEqual(real, dec) && reflect.DeepEqual(real, b.results[t])
	return rp, nil
}

func (b *batchBench) close() {}

// inOrder runs a then b, or b then a, so neither side of a paired
// measurement always runs on a cold or a warm heap.
func inOrder(aFirst bool, a, b func()) {
	if aFirst {
		a()
		b()
		return
	}
	b()
	a()
}
