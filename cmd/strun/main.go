// Command strun runs one benchmark in one execution mode and prints the
// result and runtime statistics.
//
// Usage:
//
//	strun -app fib -mode st -workers 8
//	strun -app cilksort -mode seq -full
//	strun -app heat -mode cilk -workers 32 -cpu alpha
//	strun -app fib -workers 8 -fault steal-storm:3 -audit 64   # chaos + live auditing
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/invariant"
	"repro/internal/isa"
)

func main() {
	var (
		app       = flag.String("app", "fib", "benchmark name (see -list)")
		mode      = flag.String("mode", "st", "execution mode: seq, st, cilk")
		workers   = flag.Int("workers", 1, "worker (virtual CPU) count")
		cpu       = flag.String("cpu", "sparc", "cost model: sparc, x86, mips, alpha")
		full      = flag.Bool("full", false, "paper-scale input")
		seed      = flag.Uint64("seed", 1, "scheduler seed")
		check     = flag.Bool("check", false, "enable the stack-invariant checker")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		engine    = flag.String("engine", "default", "host engine: sequential or throughput (identical results)")
		hostprocs = flag.Int("hostprocs", 0, "host cores for the throughput engine (0 = all)")
		maxcycles = flag.Int64("maxcycles", 0, "abort after this many total work cycles (0 = unlimited)")
		faultFlag = flag.String("fault", "", "deterministic fault plan, name[:seed] (see -list-faults)")
		listF     = flag.Bool("list-faults", false, "list named fault plans and exit")
	)
	auditEvery, audit := addAuditFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range figures.BenchNames {
			fmt.Println(n)
		}
		return
	}
	if *listF {
		for _, n := range fault.PlanNames() {
			fmt.Println(n)
		}
		return
	}

	sc := figures.Quick
	if *full {
		sc = figures.Full
	}
	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strun:", err)
		os.Exit(2)
	}
	plan, err := fault.ParsePlan(*faultFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strun:", err)
		os.Exit(2)
	}
	inj := fault.New(plan)
	var aud *invariant.Auditor
	if n := auditCadence(*auditEvery, *audit); n > 0 {
		aud = invariant.New(n)
	}
	variant := apps.ST
	cfg := core.Config{
		Workers:         *workers,
		CPU:             isa.CostModelByName(*cpu),
		Seed:            *seed,
		CheckInvariants: *check,
		Engine:          eng,
		HostProcs:       *hostprocs,
		MaxWorkCycles:   *maxcycles,
		Fault:           inj,
		Audit:           aud,
		Out:             os.Stdout,
	}
	switch *mode {
	case "seq":
		variant = apps.Seq
		cfg.Mode = core.Sequential
	case "st":
		cfg.Mode = core.StackThreads
	case "cilk":
		cfg.Mode = core.Cilk
	default:
		fmt.Fprintf(os.Stderr, "strun: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if cfg.CPU == nil {
		fmt.Fprintf(os.Stderr, "strun: unknown cpu %q\n", *cpu)
		os.Exit(2)
	}

	w, err := figures.Workload(*app, sc, variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strun:", err)
		os.Exit(2)
	}
	t0 := time.Now()
	res, err := core.Run(w, cfg)
	wall := time.Since(t0)
	if err != nil {
		var viol *invariant.Violation
		if errors.As(err, &viol) {
			// The auditor caught a broken machine state: show the dump.
			fmt.Fprintln(os.Stderr, "strun:", viol)
			fmt.Fprintln(os.Stderr, viol.Dump)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "strun:", err)
		os.Exit(1)
	}
	fmt.Printf("app=%s mode=%s workers=%d cpu=%s engine=%v\n", *app, *mode, *workers, *cpu, eng)
	fmt.Printf("result        %d (verified)\n", res.RV)
	fmt.Printf("elapsed       %d cycles\n", res.Time)
	fmt.Printf("host          %.3fs wall-clock (%.1f Mcycles/s)\n",
		wall.Seconds(), float64(res.WorkCycles)/1e6/wall.Seconds())
	fmt.Printf("work          %d cycles over %d instructions\n", res.WorkCycles, res.Instrs)
	fmt.Printf("steals        %d (attempts %d, rejects %d)\n", res.Steals, res.Attempts, res.Rejects)
	if inj != nil {
		counts := inj.Counts()
		sites := make([]string, 0, len(counts))
		for site := range counts {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		parts := make([]string, 0, len(sites))
		for _, site := range sites {
			parts = append(parts, fmt.Sprintf("%s=%d", site, counts[site]))
		}
		detail := strings.Join(parts, " ")
		if detail == "" {
			detail = "none fired"
		}
		fmt.Printf("faults        %d injected (plan %s): %s\n", inj.Total(), inj.Plan().String(), detail)
	}
	if aud != nil {
		fmt.Printf("audits        %d passed (every %d picks)\n",
			aud.Audits(), auditCadence(*auditEvery, *audit))
	}
	for i, st := range res.Stats {
		fmt.Printf("worker %-3d    instrs=%d calls=%d suspends=%d restarts=%d exports=%d shrinks=%d extends=%d stack-high=%d\n",
			i, st.Instrs, st.Calls, st.Suspends, st.Restarts, st.Exports, st.Shrinks, st.Extends, st.StackHighWater)
	}
}
