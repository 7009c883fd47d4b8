// Package obs is the observability layer of the StackThreads/MP runtime:
// cycle-attribution accounting, a metrics registry, a virtual-time sampling
// profiler, and a Chrome trace_event exporter.
//
// The paper's whole argument is a cost decomposition — per-return epilogue
// checks, suspend/unwind, restart/patch, steal request/poll/handshake
// (Section 8) — so this package makes every one of those costs a
// first-class measurement. A run with a *Collector attached attributes
// every worker cycle to a Phase, samples program counters on a fixed
// virtual-time period into a per-procedure profile, and records a span and
// instant event stream renderable by Perfetto / chrome://tracing.
//
// The design is zero-overhead-when-disabled: the machine and scheduler
// consult a single nil pointer before touching anything here, charge no
// virtual cycles for collection, and all attribution is delta-based over
// the existing cost-charging sites — so an instrumented run is
// cycle-identical to an uninstrumented one, and the per-phase cycles sum
// exactly to the run's total work by construction (the user phase is the
// residual).
package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
)

// Phase classifies where a worker's cycles went, following the paper's
// cost decomposition.
type Phase int

// Cycle-attribution phases.
const (
	// PhaseUser is the residual: cycles not claimed by any runtime phase —
	// the program's own computation, including plain call/return overhead.
	PhaseUser Phase = iota
	// PhaseEpilogue is the exported-set free check executed by augmented
	// epilogues (Section 5.2): the per-return tax of Figures 17-20.
	PhaseEpilogue
	// PhaseSuspend is suspend/unwind: pure-epilogue replays, frame exports
	// and the suspend builtin's entry cost (Section 3.4, Figure 6).
	PhaseSuspend
	// PhaseRestart is restart/patch: the restart builtin, invalid-frame
	// thunk bookkeeping, and resume enqueueing (Section 3.4, Figure 7).
	PhaseRestart
	// PhaseStack is explicit stack management outside suspension: shrink
	// sweeps and segment switching (Section 5).
	PhaseStack
	// PhaseStealReq is the thief side of migration: probing for victims and
	// posting the steal request (Section 4.2).
	PhaseStealReq
	// PhaseHandshake is the steal handshake: the victim servicing a request
	// (including its share of unwinding bookkeeping) and the thief waiting
	// for the reply.
	PhaseHandshake
	// PhasePoll is the cost of executed poll points (Section 4.1).
	PhasePoll
	// PhaseIdle is virtual time a worker spent with nothing to run: steal
	// back-off waits and lock spins.
	PhaseIdle

	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseUser:
		return "user"
	case PhaseEpilogue:
		return "epilogue-check"
	case PhaseSuspend:
		return "suspend-unwind"
	case PhaseRestart:
		return "restart-patch"
	case PhaseStack:
		return "stack-mgmt"
	case PhaseStealReq:
		return "steal-request"
	case PhaseHandshake:
		return "steal-handshake"
	case PhasePoll:
		return "poll"
	case PhaseIdle:
		return "idle"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// DefaultSamplePeriod is the profiler's sampling period in virtual cycles.
// A prime keeps the sample clock from phase-locking with loop bodies.
const DefaultSamplePeriod = 521

// Arg is one key/value annotation on a trace event. Events carry ordered
// slices rather than maps so that every export is byte-deterministic.
type Arg struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// Event is one entry of the enriched event stream: an instant, a span
// (duration in virtual cycles) or a counter sample on a worker's track.
type Event struct {
	// Ts is the event time in virtual cycles (span start for spans).
	Ts int64
	// Dur is the span length in virtual cycles; 0 for instants/counters.
	Dur int64
	// Worker is the track the event belongs to.
	Worker int
	// Kind is the Chrome phase letter: 'i' instant, 'X' span, 'C' counter.
	Kind byte
	// Name labels the event ("suspend", "steal", "readyq", ...).
	Name string
	Args []Arg
}

// Collector gathers one run's observability data. Attach it through
// core.Config{Obs: obs.New()}; a nil *Collector disables everything.
type Collector struct {
	// SamplePeriod is the profiler period in virtual cycles (default
	// DefaultSamplePeriod). Set it before the run starts.
	SamplePeriod int64
	// Metrics is the run's metrics registry.
	Metrics *Registry

	// Histogram handles used by the runtime's hot paths.
	StealLatency *Histogram
	ReadyQDepth  *Histogram
	ExportedSize *Histogram

	prog     *isa.Program
	workers  []*WorkerObs
	events   []Event
	makespan int64

	// The profiler accumulates sampled cycles per procedure name. Names are
	// interned to dense ids so a sample costs slice updates rather than
	// string hashing and a fresh set: procs holds each id's accumulators,
	// and descName maps the attached program's descriptor index to its
	// name id. Names are resolved only when the profile is read (Profile,
	// ExportState).
	names    []string
	nameIDs  map[string]int32
	procs    []procAcc
	descName []int32
	// stamp numbers the samples; procAcc.seen == stamp marks a name the
	// current sample has already credited to cum.
	stamp uint64
	// samples counts profiler samples (one per elapsed period).
	samples int64
}

// procAcc is one procedure name's profiler accumulators. The has flags
// record whether the name is listed in the flat and cumulative profiles,
// which a name interned by Attach but never sampled is not.
type procAcc struct {
	flat, cum       int64 // sampled cycles: leaf only / anywhere on stack
	hasFlat, hasCum bool
	seen            uint64
}

// New creates an empty collector with a fresh metrics registry.
func New() *Collector {
	c := &Collector{
		SamplePeriod: DefaultSamplePeriod,
		Metrics:      NewRegistry(),
		nameIDs:      make(map[string]int32),
	}
	c.StealLatency = c.Metrics.Histogram("steal_latency_cycles")
	c.ReadyQDepth = c.Metrics.Histogram("readyq_depth")
	c.ExportedSize = c.Metrics.Histogram("exported_set_size")
	return c
}

// Attach binds the collector to the program about to run; the profiler
// resolves sampled pcs against its descriptor table.
func (c *Collector) Attach(prog *isa.Program) {
	if c == nil {
		return
	}
	c.prog = prog
	c.descName = nil
	if prog != nil {
		c.descName = make([]int32, len(prog.Descs))
		for i, d := range prog.Descs {
			c.descName[i] = c.intern(d.Name)
		}
	}
}

// intern returns the profiler id of a procedure name, allocating one (with
// empty accumulators) on first use.
func (c *Collector) intern(name string) int32 {
	if id, ok := c.nameIDs[name]; ok {
		return id
	}
	id := int32(len(c.names))
	c.names = append(c.names, name)
	c.procs = append(c.procs, procAcc{})
	c.nameIDs[name] = id
	return id
}

// Worker returns (creating on first use) the per-worker accounting state.
func (c *Collector) Worker(id int) *WorkerObs {
	for len(c.workers) <= id {
		c.workers = append(c.workers, nil)
	}
	if c.workers[id] == nil {
		p := c.SamplePeriod
		if p <= 0 {
			p = DefaultSamplePeriod
		}
		c.workers[id] = &WorkerObs{ID: id, c: c, Period: p, NextSample: p}
	}
	return c.workers[id]
}

// Workers returns the per-worker states in id order.
func (c *Collector) Workers() []*WorkerObs { return c.workers }

// Instant records a zero-duration event on a worker's track.
func (c *Collector) Instant(t int64, worker int, name string, args ...Arg) {
	if c != nil {
		c.events = append(c.events, Event{Ts: t, Worker: worker, Kind: 'i', Name: name, Args: args})
	}
}

// Span records a duration event on a worker's track.
func (c *Collector) Span(start, end int64, worker int, name string, args ...Arg) {
	if c != nil {
		c.events = append(c.events, Event{Ts: start, Dur: end - start, Worker: worker, Kind: 'X', Name: name, Args: args})
	}
}

// CounterSample records a counter value on a worker's track.
func (c *Collector) CounterSample(t int64, worker int, name string, v int64) {
	if c != nil {
		c.events = append(c.events, Event{Ts: t, Worker: worker, Kind: 'C', Name: name, Args: []Arg{{K: name, V: v}}})
	}
}

// Events returns the recorded event stream in insertion order (the
// deterministic scheduler order).
func (c *Collector) Events() []Event { return c.events }

// SetMakespan records the run's halt time (the utilization denominator).
func (c *Collector) SetMakespan(t int64) {
	if c != nil {
		c.makespan = t
	}
}

// Makespan returns the recorded halt time.
func (c *Collector) Makespan() int64 { return c.makespan }

// FinishWorker fixes a worker's final cycle count and computes its user
// residual. Call once per worker when the run ends.
func (c *Collector) FinishWorker(id int, cycles int64) {
	o := c.Worker(id)
	o.Total = cycles
	o.Phase[PhaseUser] = cycles - o.attributed
}

// PhaseTotals aggregates attributed cycles per phase across workers. After
// FinishWorker has run for every worker, the totals sum exactly to the
// run's WorkCycles.
func (c *Collector) PhaseTotals() [NumPhases]int64 {
	var out [NumPhases]int64
	for _, o := range c.workers {
		if o == nil {
			continue
		}
		for p := Phase(0); p < NumPhases; p++ {
			out[p] += o.Phase[p]
		}
	}
	return out
}

// TotalCycles sums the finished workers' cycle counters.
func (c *Collector) TotalCycles() int64 {
	var t int64
	for _, o := range c.workers {
		if o != nil {
			t += o.Total
		}
	}
	return t
}

// WorkerObs is one worker's attribution state: per-phase cycle counters and
// the profiler's sample clock. The machine owns exactly one per worker.
type WorkerObs struct {
	ID int
	// Phase holds attributed cycles; Phase[PhaseUser] is filled by
	// FinishWorker as the residual.
	Phase [NumPhases]int64
	// Total is the worker's final cycle counter (set by FinishWorker).
	Total int64
	// Period and NextSample drive the virtual-time profiler.
	Period     int64
	NextSample int64
	// Samples counts profiler hits on this worker.
	Samples int64

	attributed int64
	c          *Collector
}

// Charge attributes cycles to a non-user phase. Charging PhaseUser is a
// bug: user time is the residual computed by FinishWorker.
func (o *WorkerObs) Charge(p Phase, cycles int64) {
	o.Phase[p] += cycles
	o.attributed += cycles
}

// AttributedTotal returns the cycles attributed so far across all non-user
// phases; the scheduler uses before/after readings to avoid double counting
// around nested runtime operations.
func (o *WorkerObs) AttributedTotal() int64 { return o.attributed }

// Snapshot returns the worker-local observability state. Every field except
// the collector pointer is a value, so a shallow copy is a full snapshot.
func (o *WorkerObs) Snapshot() WorkerObs { return *o }

// Restore reinstalls a state previously returned by Snapshot.
func (o *WorkerObs) Restore(s WorkerObs) { *o = s }

// AddSample feeds the profiler one stack observation: pcs[0] is the leaf
// (executing) pc, the rest are caller call sites from the logical-stack
// walk. weight is the number of whole sample periods the observation covers
// (>1 when a long operation crossed several periods at once).
func (o *WorkerObs) AddSample(weight int64, pcs []int64) {
	c := o.c
	if c == nil || c.prog == nil || len(pcs) == 0 {
		return
	}
	o.Samples += weight
	c.samples += weight
	cycles := weight * o.Period
	c.stamp++
	for i, pc := range pcs {
		di := c.prog.DescIndex(pc)
		if di < 0 {
			continue
		}
		p := &c.procs[c.descName[di]]
		if i == 0 {
			p.flat += cycles
			p.hasFlat = true
		}
		if p.seen != c.stamp {
			p.seen = c.stamp
			p.cum += cycles
			p.hasCum = true
		}
	}
}

// ProcProfile is one row of the sampling profile.
type ProcProfile struct {
	Name string
	// Flat is sampled cycles with the procedure at the leaf; Cum counts
	// samples with it anywhere on the logical stack.
	Flat, Cum int64
}

// Profile returns the per-procedure profile sorted by flat cycles
// descending, ties broken by name (deterministic).
func (c *Collector) Profile() []ProcProfile {
	out := []ProcProfile{}
	for id, p := range c.procs {
		if p.hasFlat || p.hasCum {
			out = append(out, ProcProfile{Name: c.names[id], Flat: p.flat, Cum: p.cum})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flat != out[j].Flat {
			return out[i].Flat > out[j].Flat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Samples returns the total number of profiler samples taken.
func (c *Collector) Samples() int64 { return c.samples }

// pct renders n/total as a fixed-point percentage with one decimal, using
// integer arithmetic only (deterministic across hosts).
func pct(n, total int64) string {
	if total <= 0 {
		return "   -"
	}
	v := n * 1000 / total
	return fmt.Sprintf("%3d.%d", v/10, v%10)
}

// WriteTop prints the profiler's top table: the n hottest procedures by
// flat sampled cycles, pprof-style.
func (c *Collector) WriteTop(w io.Writer, n int) {
	prof := c.Profile()
	var total int64
	for _, p := range prof {
		total += p.Flat
	}
	fmt.Fprintf(w, "profile: %d samples, period %d cycles, %d sampled cycles\n",
		c.samples, c.samplePeriod(), total)
	fmt.Fprintf(w, "%12s %6s%% %12s %6s%%  %s\n", "flat", "flat", "cum", "cum", "procedure")
	if n <= 0 || n > len(prof) {
		n = len(prof)
	}
	for _, p := range prof[:n] {
		fmt.Fprintf(w, "%12d %6s %12d %6s  %s\n", p.Flat, pct(p.Flat, total), p.Cum, pct(p.Cum, total), p.Name)
	}
}

func (c *Collector) samplePeriod() int64 {
	if c.SamplePeriod > 0 {
		return c.SamplePeriod
	}
	return DefaultSamplePeriod
}

// WriteReport prints the phase breakdown (summing exactly to the run's
// total work cycles) and the per-worker busy/idle utilization table.
func (c *Collector) WriteReport(w io.Writer) {
	totals := c.PhaseTotals()
	grand := c.TotalCycles()
	fmt.Fprintf(w, "phase breakdown (total work %d cycles):\n", grand)
	fmt.Fprintf(w, "  %-16s %14s %7s\n", "phase", "cycles", "%")
	for p := Phase(0); p < NumPhases; p++ {
		fmt.Fprintf(w, "  %-16s %14d %6s%%\n", p, totals[p], pct(totals[p], grand))
	}
	var sum int64
	for _, v := range totals {
		sum += v
	}
	fmt.Fprintf(w, "  %-16s %14d %6s%%\n", "total", sum, pct(sum, grand))

	fmt.Fprintf(w, "\nper-worker utilization (makespan %d cycles):\n", c.makespan)
	fmt.Fprintf(w, "  %-7s %14s %14s %14s %7s\n", "worker", "cycles", "busy", "idle", "util")
	for _, o := range c.workers {
		if o == nil {
			continue
		}
		busy := o.Total - o.Phase[PhaseIdle]
		fmt.Fprintf(w, "  w%-6d %14d %14d %14d %6s%%\n",
			o.ID, o.Total, busy, o.Phase[PhaseIdle], pct(busy, c.makespan))
	}
}
