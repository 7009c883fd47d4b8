// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points of the server, cluster, core, sched and
// snapshot packages for a fixed wall-clock window, checks every result,
// and prints the end-to-end metrics. With --trace 1 it then replays a
// seeded sample of the window's operations through the same calls one
// layer at a time and prints the per-layer breakdown instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-quick --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the same
// figures for people, with the environment they were measured in.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/figures"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// sample is one timed operation of a window.
type sample struct {
	tuple   int // the bench's index of what the operation ran
	end     time.Time
	lat     time.Duration
	outcome outcome
	vcycles int64 // virtual work executed; 0 for a cache hit
	hit     bool
	retries int
	// The job's own serving spans (served workloads).
	enqueue, probe, execute time.Duration
	forwarded               bool // a cluster member other than the target served it
	bytes                   int  // encoded continuation size (migrate)
}

// replayed is one traced replay: the real entry point's untraced time, the
// decomposed run's counts, and whether the two results agreed.
type replayed struct {
	untraced time.Duration
	counts   runCounts
	match    bool
}

// bench is one set-up workload.
type bench interface {
	// window runs closed-loop operations until deadline and returns them.
	window(deadline time.Time) []sample
	// check re-verifies a seeded sample of the window's operations,
	// marking those it proves wrong.
	check(samples []sample, seed uint64)
	// replay runs operation or tuple t (as window samples name it) through
	// its real entry point untraced and through the decomposed layer calls
	// traced, in the given order.
	replay(r *recorder, t int, tracedFirst bool) (replayed, error)
	close()
}

var (
	quickApps = without(figures.BenchNames, "magic") // magic runs 4 M vcycles at either scale
	fullApps  = without(figures.BenchNames, "fft")   // fft's host cost per vcycle would set the tail alone
)

func without(names []string, drop string) []string {
	return slices.DeleteFunc(slices.Clone(names), func(s string) bool { return s == drop })
}

// workload names a bench and sets it up for a seed and a client count.
// clients is how many closed-loop clients it wants; a run gives it at most
// one per host CPU.
type workload struct {
	name    string
	clients int
	setup   func(seed uint64, clients int) (bench, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
var workloads = []workload{
	{"serve-quick", 2, func(seed uint64, clients int) (bench, error) {
		return asBench(newServeBench(serveSpec{nodes: 2, slots: 1, repeat: true}, quickApps, seed, clients))
	}},
	// One client: two cold full-scale jobs at once keep both host CPUs busy,
	// so the tail would measure the host's scheduling as much as the
	// interpreter and vary too much from run to run.
	{"serve-full", 1, func(seed uint64, clients int) (bench, error) {
		return asBench(newServeBench(serveSpec{full: true, nodes: 1, slots: 1}, fullApps, seed, clients))
	}},
	{"batch", 1, func(seed uint64, _ int) (bench, error) { return asBench(newBatchBench(fullApps, seed)) }},
	{"migrate", 1, func(seed uint64, _ int) (bench, error) { return asBench(newMigrateBench(quickApps, seed)) }},
}

// asBench keeps a failed constructor's typed nil out of the interface.
func asBench[B bench](b B, err error) (bench, error) {
	if err != nil {
		return nil, err
	}
	return b, nil
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 5

// replayMax bounds the operations a traced run replays.
const replayMax = 24

// overrides are environment variables that silently change what runs.
var overrides = []string{"ST_ENGINE", "ST_JIT", "ST_HOSTPROCS"}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 replays a sample through the layers and reports per-layer metrics")
	spanDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, v := range overrides {
		if _, set := os.LookupEnv(v); set {
			return fmt.Errorf("%s is set; it changes what is measured, so unset it", v)
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	clients := min(workloads[i].clients, runtime.NumCPU())
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s clients=%d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients)

	var b bench
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := workloads[i].setup(*seed, clients)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	start := time.Now()
	samples := b.window(start.Add(time.Duration(*seconds) * time.Second))
	elapsed := time.Since(start)
	b.check(samples, *seed)

	var t tally
	for _, s := range samples {
		t.add(s.outcome)
	}
	e2e := endToEnd(samples, start, elapsed, setups)
	if sb, ok := b.(*serveBench); ok {
		e2e.rejected = sb.rejected()
	}
	e2e.print(stdout, *name, &t)

	out := report{Metrics: make(map[string]metricOut)}
	if *trace == 0 {
		for _, m := range e2e.metrics() {
			out.Metrics[m.name] = metricOut{finite(m.value), m.unit}
		}
	} else {
		layers, replays, err := traceRun(b, samples, *seed, time.Duration(*seconds)*time.Second, *name, *spanDir, stdout, e2e)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		t.merge(&replays)
		for _, m := range layers {
			out.Metrics[m.name] = metricOut{finite(m.value), m.unit}
		}
	}
	out.Attempted, out.Failed = t.attempted, t.failed()
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finite maps the NaN of an empty sample set to 0 so the result still
// encodes; such a run has failed operations and reads correct: false.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// named is one reported figure.
type named struct {
	name  string
	value float64
	unit  string
}

// e2eResult holds a window's end-to-end figures.
type e2eResult struct {
	setup                  float64
	setups                 []float64
	p50, p90, tail         float64
	tailP                  float64
	n                      int
	throughput, vcyclesPer float64
	contBytes              float64
	retries                int
	rejected               int64
	okLat                  []float64 // ms, successful operations
	samples                []sample
}

func endToEnd(samples []sample, start time.Time, elapsed time.Duration, setups []float64) *e2eResult {
	r := &e2eResult{setup: median(setups), setups: setups, samples: samples}
	var bytes []float64
	for _, s := range samples {
		r.retries += s.retries
		if s.outcome != okOp {
			continue
		}
		r.okLat = append(r.okLat, ms(s.lat))
		if s.bytes > 0 {
			bytes = append(bytes, float64(s.bytes))
		}
	}
	r.n = len(r.okLat)
	r.p50 = percentile(r.okLat, 50)
	r.p90 = percentile(r.okLat, 90)
	if r.tailP = tailPercentile(r.n); r.tailP > 0 {
		r.tail = percentile(r.okLat, r.tailP)
	}
	r.throughput, r.vcyclesPer = sliceRates(samples, start, elapsed)
	r.contBytes = mean(bytes)
	return r
}

// rateSlices is how many equal slices of the window the rate metrics are
// taken over. Each rate is the median slice's, so a burst of host noise in
// one slice does not move it.
const rateSlices = 5

// sliceRates returns the median slice's rate of successful operations and
// of the virtual cycles they executed, both per second. An operation counts
// toward each slice in proportion to how much of its interval the slice
// covers, so a slice's rate does not jump by whole operations.
func sliceRates(samples []sample, start time.Time, elapsed time.Duration) (ops, vcycles float64) {
	slice := elapsed / rateSlices
	var opsIn, vcIn [rateSlices]float64
	for _, s := range samples {
		if s.outcome != okOp {
			continue
		}
		lo, hi := s.end.Add(-s.lat).Sub(start), s.end.Sub(start)
		if hi <= lo {
			lo = hi - 1
		}
		for i := range opsIn {
			a, b := max(lo, time.Duration(i)*slice), min(hi, time.Duration(i+1)*slice)
			if b > a {
				f := float64(b-a) / float64(hi-lo)
				opsIn[i] += f
				vcIn[i] += f * float64(s.vcycles)
			}
		}
	}
	sec := slice.Seconds()
	for i := range opsIn {
		opsIn[i] /= sec
		vcIn[i] /= sec
	}
	return median(opsIn[:]), median(vcIn[:])
}

// metrics are the end-to-end metrics BENCHMARK.json lists, on every
// workload.
func (r *e2eResult) metrics() []named {
	return []named{
		{"setup_s", r.setup, "s"},
		{"latency_ms.p50", r.p50, "ms"},
		{"latency_ms.p90", r.p90, "ms"},
		{"throughput_ops", r.throughput, "1/s"},
		{"vcycles_per_s", r.vcyclesPer, "vcycle/s"},
	}
}

func (r *e2eResult) print(w io.Writer, workload string, t *tally) {
	fmt.Fprintf(w, "end-to-end (tracing off; %d operations attempted)\n", t.attempted)
	fmt.Fprintf(w, "  %-26s %14.4f s      median of set-ups %v\n", "setup_s", r.setup, round3(r.setups))
	fmt.Fprintf(w, "  %-26s %14.4f ms     n=%d\n", "latency_ms.p50", r.p50, r.n)
	fmt.Fprintf(w, "  %-26s %14.4f ms     n=%d\n", "latency_ms.p90", r.p90, r.n)
	if workload == "serve-quick" {
		p99 := math.NaN()
		if r.tailP >= 99 {
			p99 = percentile(r.okLat, 99)
		}
		fmt.Fprintf(w, "  %-26s %14.4f ms     n=%d\n", "latency_ms.p99", p99, r.n)
	}
	if r.tailP > 0 {
		fmt.Fprintf(w, "  %-26s %14.4f ms     highest percentile with >=10 samples beyond it: p%g\n", "latency_ms.tail", r.tail, r.tailP)
	}
	fmt.Fprintf(w, "  %-26s %14.4f 1/s\n", "throughput_ops", r.throughput)
	fmt.Fprintf(w, "  %-26s %14.0f vcycle/s\n", "vcycles_per_s", r.vcyclesPer)
	fmt.Fprintf(w, "  %-26s %14.4f        %d/%d failed", "error_rate", t.errorRate(), t.failed(), t.attempted)
	for o := outcome(1); o < numOutcomes; o++ {
		if t.by[o] > 0 {
			fmt.Fprintf(w, " %s=%d", o, t.by[o])
		}
	}
	fmt.Fprintln(w)
	if workload == "migrate" {
		fmt.Fprintf(w, "  %-26s %14.0f B\n", "continuation_bytes", r.contBytes)
	}
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replaySample picks the window operations a traced run replays: executed
// (not cache-hit) successful ones, one per tuple, in seeded order.
func replaySample(samples []sample, seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0x7ace))
	seen := make(map[int]bool)
	var pool []int
	for _, s := range samples {
		if s.outcome == okOp && !s.hit && !seen[s.tuple] {
			seen[s.tuple] = true
			pool = append(pool, s.tuple)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(len(pool), replayMax)]
}
