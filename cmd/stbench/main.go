// Command stbench regenerates the paper's evaluation figures (Section 8).
//
// Usage:
//
//	stbench -fig 17          # SPEC overhead on the SPARC model
//	stbench -fig 21 -full    # uniprocessor comparison at paper-scale sizes
//	stbench -fig 22 -bench fib,cilksort
//	stbench -all             # everything, quick scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/hostpar"
	"repro/internal/isa"
	"repro/internal/obs"
)

// runHotPath measures raw interpreter speed — host nanoseconds per simulated
// cycle — on the same single-worker legs the BenchmarkHotPath
// micro-benchmarks and the bench-hotpath CI gate use (see DESIGN.md §14):
// fib, cilksort and nqueens, then fib and cilksort with an obs.Collector
// attached, as on every served job.
func runHotPath() error {
	const rounds = 3
	fib, cilksort := apps.Fib(22, apps.ST), apps.Cilksort(6000, apps.ST, 11)
	for _, leg := range []struct {
		wl      *apps.Workload
		withObs bool
	}{
		{fib, false}, {cilksort, false}, {apps.NQueens(8, apps.ST), false},
		{fib, true}, {cilksort, true},
	} {
		name := leg.wl.Name
		if leg.withObs {
			name += "-obs"
		}
		var hostNS, vcycles int64
		for i := 0; i < rounds; i++ {
			cfg := core.Config{Mode: core.StackThreads, Workers: 1, Seed: 1}
			if leg.withObs {
				cfg.Obs = obs.New()
			}
			t0 := time.Now()
			res, err := core.Run(leg.wl, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			hostNS += time.Since(t0).Nanoseconds()
			vcycles += res.WorkCycles
		}
		fmt.Printf("%-12s %7.2f host-ns/vcycle  (%d vcycles/run, %d rounds)\n",
			name, float64(hostNS)/float64(vcycles), vcycles/rounds, rounds)
	}
	return nil
}

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (17, 18, 19, 20, 21, 22)")
		all       = flag.Bool("all", false, "regenerate every figure")
		full      = flag.Bool("full", false, "paper-scale inputs (slow); default quick")
		bench     = flag.String("bench", "", "comma-separated benchmark subset for -fig 21/22")
		ablate    = flag.Bool("ablate", false, "run the design-choice ablations instead of a figure")
		hostprocs = flag.Int("hostprocs", 0, "host cores for fanning independent data points (0 = all)")
		maxcycles = flag.Int64("maxcycles", 0, "per-run total work-cycle budget (0 = unlimited)")
		audit     = flag.Int64("audit-every", 0, "audit the paper's 3.2 invariants every N scheduler picks inside each run (0 = off)")
		hotpath   = flag.Bool("hotpath", false, "measure interpreter speed (host-ns per virtual cycle) on the hot-path trio")
	)
	flag.Parse()

	if *hotpath {
		if err := runHotPath(); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		return
	}

	opts := figures.Opts{HostProcs: *hostprocs, MaxWorkCycles: *maxcycles, AuditEvery: *audit}

	sc := figures.Quick
	if *full {
		sc = figures.Full
	}
	var benches []string
	if *bench != "" {
		benches = strings.Split(*bench, ",")
	}

	if *ablate {
		if err := writeAblations(os.Stdout, sc); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		return
	}

	var figs []int
	switch {
	case *all:
		figs = allFigures
	case *fig != 0:
		figs = []int{*fig}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := writeFigures(os.Stdout, os.Stderr, figs, sc, benches, opts); err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
	}
}

// allFigures are the figures -all regenerates.
var allFigures = []int{17, 18, 19, 20, 21, 22}

// writeFigures prints each figure to w followed by a blank line, and its host
// wall-clock line to timing, so w depends only on the deterministic figures.
func writeFigures(w, timing io.Writer, figs []int, sc figures.Scale, benches []string, opts figures.Opts) error {
	for _, f := range figs {
		t0 := time.Now()
		var err error
		switch f {
		case 17, 18, 19, 20:
			cpuName := map[int]string{17: "sparc", 18: "x86", 19: "mips", 20: "alpha"}[f]
			_, err = figures.SpecOverheadsWith(w, isa.CostModelByName(cpuName), opts)
		case 21:
			_, err = figures.UniprocessorWith(w, sc, opts)
		case 22:
			figures.Table2(w)
			_, err = figures.ScalingWith(w, sc, benches, opts)
		default:
			err = fmt.Errorf("unknown figure %d", f)
		}
		fmt.Fprintf(timing, "[figure %d: %.2fs host wall-clock on %d cores]\n",
			f, time.Since(t0).Seconds(), hostpar.Procs(opts.HostProcs))
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// writeAblations prints the design-choice ablations to w, separated by blank
// lines.
func writeAblations(w io.Writer, sc figures.Scale) error {
	if _, err := figures.AblateCriteria(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if _, err := figures.AblateStealPolicy(w, sc); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if _, err := figures.SpaceBound(w, sc); err != nil {
		return err
	}
	fmt.Fprintln(w)
	_, err := figures.AblateSegmentedStacks(w)
	return err
}
