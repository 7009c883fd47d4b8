// Command sttrace runs a benchmark under the parallel runtime and prints
// its migration-level event timeline: steal requests, steals, rejects,
// ready-queue resumes, idle transitions, and the halt — the observable
// behaviour of the Section 4 protocol in virtual time. Steal rows carry the
// migrated thread's identity (top frame, resume pc) and the request→steal
// latency.
//
// With the observability flags it also exports the run through internal/obs:
// -chrome writes a Perfetto-loadable Chrome trace, -metrics dumps the
// metrics registry as JSON, and -profile prints the phase breakdown and the
// sampling profiler's top table.
//
// Usage:
//
//	sttrace -app fib -workers 4
//	sttrace -app cilksort -workers 8 -mode cilk -summary
//	sttrace -app fib -workers 4 -chrome trace.json -profile
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	var (
		app       = flag.String("app", "pingpong", "benchmark name")
		mode      = flag.String("mode", "st", "st or cilk")
		workers   = flag.Int("workers", 4, "worker count")
		seed      = flag.Uint64("seed", 1, "scheduler seed")
		full      = flag.Bool("full", false, "paper-scale input")
		summary   = flag.Bool("summary", false, "print event counts only")
		chrome    = flag.String("chrome", "", "write Chrome trace_event JSON to this file")
		metrics   = flag.String("metrics", "", "write the metrics registry snapshot to this file")
		profile   = flag.Bool("profile", false, "print the phase breakdown and profiler top table")
		engine    = flag.String("engine", "default", "host engine: sequential or throughput (identical traces)")
		hostprocs = flag.Int("hostprocs", 0, "host cores for the throughput engine (0 = all)")
	)
	flag.Parse()

	sc := figures.Quick
	if *full {
		sc = figures.Full
	}
	var w *apps.Workload
	var err error
	if *app == "pingpong" {
		w = apps.PingPong(20, apps.ST)
	} else {
		w, err = figures.Workload(*app, sc, apps.ST)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sttrace:", err)
			os.Exit(2)
		}
	}

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttrace:", err)
		os.Exit(2)
	}
	cfg := core.Config{
		Mode:      core.StackThreads,
		Workers:   *workers,
		Seed:      *seed,
		Engine:    eng,
		HostProcs: *hostprocs,
		Events:    &sched.EventLog{},
	}
	if *mode == "cilk" {
		cfg.Mode = core.Cilk
	}
	var c *obs.Collector
	if *chrome != "" || *metrics != "" || *profile {
		c = obs.New()
		cfg.Obs = c
	}
	res, err := core.Run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttrace:", err)
		os.Exit(1)
	}

	fmt.Printf("app=%s mode=%s workers=%d: result %d in %d cycles, %d steals\n\n",
		*app, *mode, *workers, res.RV, res.Time, res.Steals)
	if *summary {
		for k, n := range cfg.Events.Counts() {
			fmt.Printf("%10s %d\n", k, n)
		}
	} else {
		cfg.Events.Dump(os.Stdout)
	}

	if *profile {
		fmt.Println()
		c.WriteReport(os.Stdout)
		fmt.Println()
		c.WriteTop(os.Stdout, 10)
	}
	if *metrics != "" {
		b, err := c.Metrics.MarshalJSON()
		if err == nil {
			err = os.WriteFile(*metrics, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sttrace: metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metrics)
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
			fmt.Fprintln(os.Stderr, "sttrace: chrome trace:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (load in ui.perfetto.dev)\n", *chrome)
	}
}
