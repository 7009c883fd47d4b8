// Package repro_test holds the benchmark harness of the reproduction: one
// testing.B benchmark per table and figure of the paper's evaluation
// (Section 8). Each benchmark regenerates its figure's rows at quick scale
// and reports the figure's headline numbers as custom metrics; the stbench
// command produces the full-size versions.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/spec"
)

// benchSpec regenerates one SPEC overhead figure (17-20) and reports the
// average relative execution time of the full "st" setting.
func benchSpec(b *testing.B, cpuName string) {
	cpu := isa.CostModelByName(cpuName)
	var avg float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, p := range spec.Profiles() {
			o, err := spec.RunOverhead(cpu, p)
			if err != nil {
				b.Fatal(err)
			}
			sum += o.Relative("st")
		}
		avg = sum / float64(len(spec.Profiles()))
	}
	b.ReportMetric(avg, "st-rel-avg")
}

// BenchmarkFig17SpecSPARC regenerates Figure 17 (SPEC overhead, SPARC).
func BenchmarkFig17SpecSPARC(b *testing.B) { benchSpec(b, "sparc") }

// BenchmarkFig18SpecX86 regenerates Figure 18 (SPEC overhead, Pentium PRO).
func BenchmarkFig18SpecX86(b *testing.B) { benchSpec(b, "x86") }

// BenchmarkFig19SpecMips regenerates Figure 19 (SPEC overhead, Mips R10000).
func BenchmarkFig19SpecMips(b *testing.B) { benchSpec(b, "mips") }

// BenchmarkFig20SpecAlpha regenerates Figure 20 (SPEC overhead, Alpha).
func BenchmarkFig20SpecAlpha(b *testing.B) { benchSpec(b, "alpha") }

// BenchmarkFig21Uniprocessor regenerates Figure 21: per benchmark, the
// uniprocessor execution time of StackThreads/MP and Cilk relative to the
// sequential C elision.
func BenchmarkFig21Uniprocessor(b *testing.B) {
	for _, name := range figures.BenchNames {
		name := name
		b.Run(name, func(b *testing.B) {
			var st, ck float64
			for i := 0; i < b.N; i++ {
				seqW, err := figures.Workload(name, figures.Quick, apps.Seq)
				if err != nil {
					b.Fatal(err)
				}
				seqRes, err := core.Run(seqW, core.Config{Mode: core.Sequential})
				if err != nil {
					b.Fatal(err)
				}
				stW, _ := figures.Workload(name, figures.Quick, apps.ST)
				stRes, err := core.Run(stW, core.Config{Mode: core.StackThreads, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				ckW, _ := figures.Workload(name, figures.Quick, apps.ST)
				ckRes, err := core.Run(ckW, core.Config{Mode: core.Cilk, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				st = float64(stRes.Time) / float64(seqRes.Time)
				ck = float64(ckRes.Time) / float64(seqRes.Time)
			}
			b.ReportMetric(st, "st-rel-seq")
			b.ReportMetric(ck, "cilk-rel-seq")
		})
	}
}

// BenchmarkFig22Scaling regenerates Figure 22: StackThreads/MP elapsed time
// relative to Cilk at each processor count, per benchmark.
func BenchmarkFig22Scaling(b *testing.B) {
	for _, name := range figures.BenchNames {
		for _, workers := range figures.ScalingWorkers {
			name, workers := name, workers
			b.Run(name+"/p="+itoa(workers), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					stW, err := figures.Workload(name, figures.Quick, apps.ST)
					if err != nil {
						b.Fatal(err)
					}
					stRes, err := core.Run(stW, core.Config{Mode: core.StackThreads, Workers: workers, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					ckW, _ := figures.Workload(name, figures.Quick, apps.ST)
					ckRes, err := core.Run(ckW, core.Config{Mode: core.Cilk, Workers: workers, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					ratio = float64(stRes.Time) / float64(ckRes.Time)
				}
				b.ReportMetric(ratio, "st/cilk")
			})
		}
	}
}

// BenchmarkTable2MachineThroughput measures the simulator itself: virtual
// cycles executed per host second on the Table 2 configuration (how fast
// the DES stand-in for the Enterprise 10000 runs).
func BenchmarkTable2MachineThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		w := apps.Fib(20, apps.ST)
		res, err := core.Run(w, core.Config{Mode: core.StackThreads, Workers: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.WorkCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "vcycles/s")
}

// BenchmarkEngineSpeedup runs a Figure-22-scale simulation under the
// sequential oracle and the throughput engine, checks the results are
// identical, and reports the wall-clock speedup. The two legs alternate
// which runs first on each iteration, so warm-up and cache effects cannot
// favour either. host-speedup approaches the host's core count on
// steal-heavy runs and is ~1 on a single-core host; host-cores records the
// context. On multi-core CI runners the sub-benchmark is gated by an
// absolute floor (see ci.yml bench-speedup).
func BenchmarkEngineSpeedup(b *testing.B) {
	const workers = 16
	run := func(eng core.Engine) (*core.Result, time.Duration) {
		w := apps.Fib(22, apps.ST)
		t0 := time.Now()
		res, err := core.Run(w, core.Config{
			Mode: core.StackThreads, Workers: workers, Seed: 1, Engine: eng,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(t0)
	}
	b.Run(core.EngineThroughput.String(), func(b *testing.B) {
		var seqT, tpT time.Duration
		for i := 0; i < b.N; i++ {
			var seqRes, tpRes *core.Result
			var st, tt time.Duration
			if i%2 == 0 {
				seqRes, st = run(core.EngineSequential)
				tpRes, tt = run(core.EngineThroughput)
			} else {
				tpRes, tt = run(core.EngineThroughput)
				seqRes, st = run(core.EngineSequential)
			}
			if !reflect.DeepEqual(seqRes, tpRes) {
				b.Fatalf("engines diverged: sequential %+v vs throughput %+v", seqRes, tpRes)
			}
			seqT += st
			tpT += tt
		}
		b.ReportMetric(seqT.Seconds()/tpT.Seconds(), "host-speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "host-cores")
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
