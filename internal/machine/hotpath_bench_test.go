package machine_test

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
)

// Hot-path benchmarks: host nanoseconds spent per simulated virtual cycle on
// the interpreter-dominated workloads (fib, cilksort, nqueens). This is the
// figure of merit for the interpreter dispatch path itself — virtual-time
// results are byte-identical no matter how fast the host loop runs, so any
// change here is pure host efficiency. The -obs legs attach an obs.Collector
// to every run, as the server does to every served job: the profiler's
// sample boundaries then split batched runs. The bench-hotpath CI step gates
// these against BENCH_BASELINE.json (with a wide tolerance for runner
// noise).
func benchHotPath(b *testing.B, mk func() *apps.Workload, withObs bool) {
	b.Helper()
	var hostNS, vcycles int64
	for i := 0; i < b.N; i++ {
		w := mk()
		cfg := core.Config{Mode: core.StackThreads, Workers: 1, Seed: 1}
		if withObs {
			cfg.Obs = obs.New()
		}
		t0 := time.Now()
		res, err := core.Run(w, cfg)
		host := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		hostNS += host.Nanoseconds()
		vcycles += res.WorkCycles
	}
	b.ReportMetric(float64(hostNS)/float64(vcycles), "host-ns/vcycle")
}

func BenchmarkHotPath(b *testing.B) {
	fib := func() *apps.Workload { return apps.Fib(22, apps.ST) }
	cilksort := func() *apps.Workload { return apps.Cilksort(6000, apps.ST, 11) }
	b.Run("fib", func(b *testing.B) { benchHotPath(b, fib, false) })
	b.Run("cilksort", func(b *testing.B) { benchHotPath(b, cilksort, false) })
	b.Run("nqueens", func(b *testing.B) {
		benchHotPath(b, func() *apps.Workload { return apps.NQueens(8, apps.ST) }, false)
	})
	b.Run("fib-obs", func(b *testing.B) { benchHotPath(b, fib, true) })
	b.Run("cilksort-obs", func(b *testing.B) { benchHotPath(b, cilksort, true) })
}
