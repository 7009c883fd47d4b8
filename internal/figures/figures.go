// Package figures regenerates every figure of the paper's evaluation
// (Section 8): the SPEC int 95 sequential-overhead charts (Figures 17-20),
// the uniprocessor comparison against sequential C and Cilk (Figure 21),
// and the multiprocessor scaling comparison (Figure 22, Table 2's machine
// stood in by the deterministic virtual-time multiprocessor).
//
// Each driver prints the same rows/series the paper reports and returns the
// raw data so tests can assert the qualitative shape.
package figures

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hostpar"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/spec"
)

// Opts tunes how a figure's data points execute on the host. The zero value
// runs every point on one core. Data points are independent deterministic
// simulations, so HostProcs changes no number or byte of output — only
// wall-clock time.
type Opts struct {
	// HostProcs caps the host goroutines that fan independent data points
	// (benchmark rows, worker counts, SPEC profiles); <= 1 runs inline.
	HostProcs int
	// MaxWorkCycles, when positive, bounds each individual run's total work
	// (see core.Config.MaxWorkCycles); a budget abort fails the figure.
	MaxWorkCycles int64
	// AuditEvery, when positive, runs the Section 3.2 invariant auditor
	// every N scheduler picks inside each individual run. Auditing is
	// read-only and charges no virtual cycles, so every figure number is
	// byte-identical with or without it; a violation fails the figure.
	AuditEvery int64
}

// audit builds a fresh auditor per run (the auditor carries per-run pick
// counters, so sharing one across runs would skew its cadence); nil when
// auditing is off.
func (o Opts) audit() *invariant.Auditor {
	if o.AuditEvery <= 0 {
		return nil
	}
	return invariant.New(o.AuditEvery)
}

// Scale selects experiment sizes.
type Scale int

// Experiment scales.
const (
	// Quick shrinks inputs for tests and smoke runs.
	Quick Scale = iota
	// Full approximates the paper's workload sizes (minutes of host time).
	Full
)

// BenchNames lists the parallel benchmarks in the order of Figures 21/22.
var BenchNames = []string{
	"cilksort", "notempmul", "knapsack", "fib", "heat",
	"lu", "fft", "spacemul", "blockedmul", "magic",
}

// Workload builds the named benchmark at the given scale and variant.
func Workload(name string, sc Scale, v apps.Variant) (*apps.Workload, error) {
	build, err := builder(name, sc, v)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// CheckName reports whether Workload accepts the benchmark name, with
// Workload's own error, without building anything: some inputs take long
// to construct (full-scale fft computes a 4096-point reference DFT).
func CheckName(name string) error {
	_, err := builder(name, Quick, apps.ST)
	return err
}

// builder resolves a benchmark name to a deferred constructor. Workload and
// CheckName share this one switch, so the accepted names cannot drift.
func builder(name string, sc Scale, v apps.Variant) (func() *apps.Workload, error) {
	type sizes struct{ quick, full int64 }
	pick := func(s sizes) int64 {
		if sc == Full {
			return s.full
		}
		return s.quick
	}
	switch name {
	case "cilksort":
		return func() *apps.Workload { return apps.Cilksort(pick(sizes{800, 20000}), v, 11) }, nil
	case "notempmul":
		return func() *apps.Workload { return apps.Notempmul(pick(sizes{12, 96}), v, 21) }, nil
	case "knapsack":
		return func() *apps.Workload {
			n := pick(sizes{14, 24})
			return apps.Knapsack(int(n), 10*n/2, v, 5)
		}, nil
	case "fib":
		return func() *apps.Workload { return apps.Fib(pick(sizes{15, 25}), v) }, nil
	case "heat":
		return func() *apps.Workload {
			g := pick(sizes{16, 128})
			return apps.Heat(g, g, pick(sizes{6, 24}), v, 31)
		}, nil
	case "lu":
		return func() *apps.Workload { return apps.LU(pick(sizes{12, 128}), v, 32) }, nil
	case "fft":
		return func() *apps.Workload { return apps.FFT(pick(sizes{128, 4096}), v, 33) }, nil
	case "spacemul":
		return func() *apps.Workload { return apps.Spacemul(pick(sizes{12, 48}), v, 23) }, nil
	case "blockedmul":
		return func() *apps.Workload { return apps.Blockedmul(pick(sizes{12, 96}), v, 22) }, nil
	case "magic":
		return func() *apps.Workload { return apps.Magic(v, 34) }, nil
	}
	return nil, fmt.Errorf("figures: unknown benchmark %q", name)
}

// SpecFigure identifies the SPEC overhead figure for a CPU name.
func SpecFigure(cpuName string) int {
	switch cpuName {
	case "sparc":
		return 17
	case "x86":
		return 18
	case "mips":
		return 19
	case "alpha":
		return 20
	}
	return 0
}

// SpecOverheads runs Figure 17/18/19/20 for the CPU and writes the rows.
func SpecOverheads(w io.Writer, cpu *isa.CostModel) ([]*spec.Overhead, error) {
	return SpecOverheadsWith(w, cpu, Opts{})
}

// SpecOverheadsWith is SpecOverheads with host-execution options: each SPEC
// profile is an independent simulation, fanned across host cores.
func SpecOverheadsWith(w io.Writer, cpu *isa.CostModel, opts Opts) ([]*spec.Overhead, error) {
	settings, err := spec.SettingsFor(cpu.Name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure %d: SPEC int 95 overhead on %s (elapsed time, default = 1)\n",
		SpecFigure(cpu.Name), cpu.Name)
	fmt.Fprintf(w, "%-10s", "bench")
	for _, s := range settings {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)

	profiles := spec.Profiles()
	out := make([]*spec.Overhead, len(profiles))
	if err := hostpar.Map(len(profiles), opts.HostProcs, func(i int) error {
		o, err := spec.RunOverhead(cpu, profiles[i])
		if err != nil {
			return err
		}
		out[i] = o
		return nil
	}); err != nil {
		return nil, err
	}
	sums := make([]float64, len(settings))
	for k, o := range out {
		fmt.Fprintf(w, "%-10s", profiles[k].Name)
		for i, s := range settings {
			rel := o.Relative(s.Name)
			sums[i] += rel
			fmt.Fprintf(w, " %14.3f", rel)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "avg")
	for i := range settings {
		fmt.Fprintf(w, " %14.3f", sums[i]/float64(len(profiles)))
	}
	fmt.Fprintln(w)
	return out, nil
}

// UniRow is one bar pair of Figure 21.
type UniRow struct {
	Bench   string
	SeqTime int64
	STTime  int64
	CilkT   int64
}

// STRel and CilkRel are execution times relative to sequential C.
func (r UniRow) STRel() float64   { return float64(r.STTime) / float64(r.SeqTime) }
func (r UniRow) CilkRel() float64 { return float64(r.CilkT) / float64(r.SeqTime) }

// Uniprocessor runs Figure 21: serial execution time of StackThreads/MP and
// Cilk relative to sequential C for every benchmark.
func Uniprocessor(w io.Writer, sc Scale) ([]UniRow, error) {
	return UniprocessorWith(w, sc, Opts{})
}

// UniprocessorWith is Uniprocessor with host-execution options: each
// benchmark row is computed independently, fanned across host cores, and
// printed in canonical order afterwards.
func UniprocessorWith(w io.Writer, sc Scale, opts Opts) ([]UniRow, error) {
	fmt.Fprintln(w, "Figure 21: uniprocessor execution time relative to sequential C")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "bench", "stackthreads", "cilk")
	rows := make([]UniRow, len(BenchNames))
	if err := hostpar.Map(len(BenchNames), opts.HostProcs, func(i int) error {
		name := BenchNames[i]
		seqW, err := Workload(name, sc, apps.Seq)
		if err != nil {
			return err
		}
		seqRes, err := core.Run(seqW, core.Config{Mode: core.Sequential, MaxWorkCycles: opts.MaxWorkCycles, Audit: opts.audit()})
		if err != nil {
			return fmt.Errorf("%s/seq: %w", name, err)
		}
		stW, err := Workload(name, sc, apps.ST)
		if err != nil {
			return err
		}
		stRes, err := core.Run(stW, core.Config{Mode: core.StackThreads, Workers: 1, MaxWorkCycles: opts.MaxWorkCycles, Audit: opts.audit()})
		if err != nil {
			return fmt.Errorf("%s/st: %w", name, err)
		}
		ckW, err := Workload(name, sc, apps.ST)
		if err != nil {
			return err
		}
		ckRes, err := core.Run(ckW, core.Config{Mode: core.Cilk, Workers: 1, MaxWorkCycles: opts.MaxWorkCycles, Audit: opts.audit()})
		if err != nil {
			return fmt.Errorf("%s/cilk: %w", name, err)
		}
		rows[i] = UniRow{Bench: name, SeqTime: seqRes.Time, STTime: stRes.Time, CilkT: ckRes.Time}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.3f %12.3f\n", r.Bench, r.STRel(), r.CilkRel())
	}
	return rows, nil
}

// ScalingWorkers are the processor counts of Figure 22.
var ScalingWorkers = []int{1, 8, 32, 50}

// ScaleRow is one benchmark's series in Figure 22.
type ScaleRow struct {
	Bench string
	// STTime and CilkTime are indexed like ScalingWorkers.
	STTime   []int64
	CilkTime []int64
}

// Ratio returns ST elapsed time relative to Cilk at worker index i.
func (r ScaleRow) Ratio(i int) float64 { return float64(r.STTime[i]) / float64(r.CilkTime[i]) }

// Scaling runs Figure 22: elapsed time of StackThreads/MP relative to Cilk
// on 1 to 50 (virtual) processors.
func Scaling(w io.Writer, sc Scale, benches []string) ([]ScaleRow, error) {
	return ScalingWith(w, sc, benches, Opts{})
}

// ScalingWith is Scaling with host-execution options: every (benchmark,
// worker count) point is an independent simulation, fanned across host
// cores; the table prints in canonical order once all points are in.
func ScalingWith(w io.Writer, sc Scale, benches []string, opts Opts) ([]ScaleRow, error) {
	if benches == nil {
		benches = BenchNames
	}
	fmt.Fprintln(w, "Figure 22: StackThreads/MP elapsed time relative to Cilk")
	fmt.Fprintf(w, "%-12s", "bench")
	for _, n := range ScalingWorkers {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("p=%d", n))
	}
	fmt.Fprintln(w)

	rows := make([]ScaleRow, len(benches))
	for i, name := range benches {
		rows[i] = ScaleRow{
			Bench:    name,
			STTime:   make([]int64, len(ScalingWorkers)),
			CilkTime: make([]int64, len(ScalingWorkers)),
		}
	}
	points := len(benches) * len(ScalingWorkers)
	if err := hostpar.Map(points, opts.HostProcs, func(k int) error {
		bi, wi := k/len(ScalingWorkers), k%len(ScalingWorkers)
		name, n := benches[bi], ScalingWorkers[wi]
		stW, err := Workload(name, sc, apps.ST)
		if err != nil {
			return err
		}
		stRes, err := core.Run(stW, core.Config{Mode: core.StackThreads, Workers: n, Seed: 1, MaxWorkCycles: opts.MaxWorkCycles, Audit: opts.audit()})
		if err != nil {
			return fmt.Errorf("%s/st/p=%d: %w", name, n, err)
		}
		ckW, err := Workload(name, sc, apps.ST)
		if err != nil {
			return err
		}
		ckRes, err := core.Run(ckW, core.Config{Mode: core.Cilk, Workers: n, Seed: 1, MaxWorkCycles: opts.MaxWorkCycles, Audit: opts.audit()})
		if err != nil {
			return fmt.Errorf("%s/cilk/p=%d: %w", name, n, err)
		}
		rows[bi].STTime[wi] = stRes.Time
		rows[bi].CilkTime[wi] = ckRes.Time
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s", row.Bench)
		for i := range ScalingWorkers {
			fmt.Fprintf(w, " %8.3f", row.Ratio(i))
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}

// Table2 prints the parallel-machine configuration (the DES stand-in for
// the paper's Enterprise 10000).
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: parallel benchmark setting")
	fmt.Fprintln(w, "  Machine   deterministic virtual-time multiprocessor (DES)")
	fmt.Fprintln(w, "  CPU       sparc cost model (see internal/isa/cost.go)")
	fmt.Fprintf(w, "  CPUs      up to %d workers\n", ScalingWorkers[len(ScalingWorkers)-1])
	fmt.Fprintln(w, "  Memory    flat shared word memory, per-worker stacks")
}
