// Command stprof runs one benchmark with the observability layer attached
// and prints a profile of where the virtual cycles went: the phase breakdown
// of the paper's cost decomposition (Section 8), the sampling profiler's top
// table, the per-worker utilization report, and which interpreter tier the
// work cycles ran on (batched runs, the per-instruction reference path, and
// the runtime services and idle waits outside both). -timeline adds the
// migration-level event timeline (steal requests, steals, rejects,
// ready-queue resumes, idle transitions and the halt, then a count per kind).
// It can also export the metrics registry as JSON and the event stream as a
// Chrome trace loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	stprof -app fib -workers 4
//	stprof -app cilksort -mode cilk -workers 8 -top 5
//	stprof -app fib -workers 4 -timeline
//	stprof -app fib -workers 4 -chrome trace.json -metrics metrics.json
//	stprof -app fib -workers 4 -prom metrics.prom
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	var (
		app      = flag.String("app", "fib", "benchmark name")
		mode     = flag.String("mode", "st", "execution mode: seq, st, cilk")
		workers  = flag.Int("workers", 4, "worker (virtual CPU) count")
		seed     = flag.Uint64("seed", 1, "scheduler seed")
		full     = flag.Bool("full", false, "paper-scale input")
		sample   = flag.Int64("sample", obs.DefaultSamplePeriod, "profiler sample period in virtual cycles")
		top      = flag.Int("top", 10, "rows in the profile top table (0 = all)")
		timeline = flag.Bool("timeline", false, "print the migration event timeline and per-kind counts")
		chrome   = flag.String("chrome", "", "write Chrome trace_event JSON to this file")
		metrics  = flag.String("metrics", "", "write the metrics registry snapshot to this file")
		prom     = flag.String("prom", "", "write the metrics registry in Prometheus text exposition format to this file")
	)
	flag.Parse()

	sc := figures.Quick
	if *full {
		sc = figures.Full
	}
	runMode, variant, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stprof:", err)
		os.Exit(2)
	}
	c := obs.New()
	c.SamplePeriod = *sample
	cont := &sched.Contention{}
	cfg := core.Config{Mode: runMode, Workers: *workers, Seed: *seed, Obs: c, Contention: cont}

	w, err := figures.Workload(*app, sc, variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stprof:", err)
		os.Exit(2)
	}
	res, err := core.Run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stprof:", err)
		os.Exit(1)
	}

	fmt.Printf("app=%s mode=%s workers=%d seed=%d: result %d in %d cycles (%d work, %d steals)\n\n",
		*app, *mode, len(res.Stats), *seed, res.RV, res.Time, res.WorkCycles, res.Steals)
	c.WriteReport(os.Stdout)
	fmt.Println()
	c.WriteTop(os.Stdout, *top)
	fmt.Println()
	writeTiers(cont.Snapshot(), res.WorkCycles)
	if *timeline {
		fmt.Println()
		c.WriteTimeline(os.Stdout)
	}

	if *metrics != "" {
		b, err := c.Metrics.MarshalJSON()
		if err == nil {
			err = os.WriteFile(*metrics, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stprof: metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metrics)
	}
	if *prom != "" {
		f, err := os.Create(*prom)
		if err == nil {
			err = obs.WritePrometheus(f, c.Metrics.Snapshot(), "st")
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stprof: prom:", err)
			os.Exit(1)
		}
		fmt.Printf("prometheus exposition written to %s\n", *prom)
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err == nil {
			err = c.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stprof: chrome trace:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (load in ui.perfetto.dev)\n", *chrome)
	}
}

// writeTiers prints where the run's work cycles were charged: on the batched
// interpreter tier, on the per-instruction reference path, and outside the
// instruction loop (runtime services such as builtins, suspension unwinding
// and steal handshakes, and idle waits).
func writeTiers(cs sched.ContentionSnapshot, work int64) {
	rest := work - cs.BatchedCycles - cs.ReferenceCycles
	share := func(v int64) float64 {
		if work == 0 {
			return 0
		}
		return 100 * float64(v) / float64(work)
	}
	fmt.Println("tier residency (virtual cycles)")
	fmt.Printf("  %-20s %14d %6.1f%%\n", "batched", cs.BatchedCycles, share(cs.BatchedCycles))
	fmt.Printf("  %-20s %14d %6.1f%%\n", "reference", cs.ReferenceCycles, share(cs.ReferenceCycles))
	fmt.Printf("  %-20s %14d %6.1f%%\n", "services+idle", rest, share(rest))
}
