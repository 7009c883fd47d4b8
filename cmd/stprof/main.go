// Command stprof runs one benchmark with the observability layer attached
// and prints a profile of where the virtual cycles went: the phase breakdown
// of the paper's cost decomposition (Section 8), the sampling profiler's top
// table, and the per-worker utilization report. -timeline adds the
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

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
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
	variant := apps.ST
	c := obs.New()
	c.SamplePeriod = *sample
	cfg := core.Config{Workers: *workers, Seed: *seed, Obs: c}
	switch *mode {
	case "seq":
		variant = apps.Seq
		cfg.Mode = core.Sequential
	case "st":
		cfg.Mode = core.StackThreads
	case "cilk":
		cfg.Mode = core.Cilk
	default:
		fmt.Fprintf(os.Stderr, "stprof: unknown mode %q\n", *mode)
		os.Exit(2)
	}

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
		*app, *mode, *workers, *seed, res.RV, res.Time, res.WorkCycles, res.Steals)
	c.WriteReport(os.Stdout)
	fmt.Println()
	c.WriteTop(os.Stdout, *top)
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
