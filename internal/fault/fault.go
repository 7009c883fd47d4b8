// Package fault is the deterministic fault injector behind
// core.Config.Fault: a seed-driven source of adversarial scheduling and
// serving perturbations, drawn from named, replayable plans.
//
// Faults come in three classes with different determinism contracts:
//
//   - Virtual faults (steal-request drops and delays, spurious
//     suspend/restart pairs, worker stalls) perturb the simulated machine
//     in virtual time. They are part of the run's input: a (tuple, plan,
//     seed) triple produces byte-identical results on every engine, every
//     time — the faulted run is just a different, equally deterministic
//     schedule. The scheduler consults these sites only at coordinator
//     pick boundaries, which both engines visit in the same order.
//
//   - Host-transparent faults (forced speculation aborts) perturb only the
//     host execution strategy. The throughput engine already treats every
//     speculated chain segment as disposable, so forcing aborts changes no
//     output byte; the sequential engine never consults the site.
//
//   - Serving faults (executor panics, latency spikes) perturb the stserve
//     host path and never touch a simulation. Decisions are a stateless
//     hash of (seed, job key, attempt), so a retried job re-rolls while a
//     replayed plan reproduces exactly.
//
// Each injection site draws from its own generator stream, so enabling one
// fault class never shifts the decisions of another, and host-side sites
// cannot desync the virtual ones.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Plan is a named, replayable fault plan. Percentages are 0-100 injection
// probabilities per visit to the corresponding site; zero disables a site.
type Plan struct {
	Name string
	// Seed drives every injection decision; equal (plan, seed) pairs
	// reproduce the exact fault sequence.
	Seed uint64

	// Virtual faults — deterministic parts of the simulated schedule.
	StealDropPct     int   // steal request lost in transit; thief retries
	StealDelayPct    int   // steal request delayed before posting
	StealDelayCycles int64 // delay per delayed request (default 400)
	SpuriousPollPct  int   // spurious poll signal → suspend/restart pair (ST mode)
	StallPct         int   // picked worker stalls (memory system hiccup)
	StallCycles      int64 // stall length in cycles (default 2000)

	// Host-transparent faults — perturb the throughput engine only.
	SpecAbortPct int // speculation validation forced to fail

	// Serving faults — stserve executor path only.
	ExecPanicPct int   // executor panics mid-job
	ExecDelayPct int   // executor sleeps before running the job
	ExecDelayMs  int64 // latency spike length (default 200)
}

// withDefaults fills the magnitude fields sites read alongside a
// percentage.
func (p Plan) withDefaults() Plan {
	if p.StealDelayCycles <= 0 {
		p.StealDelayCycles = 400
	}
	if p.StallCycles <= 0 {
		p.StallCycles = 2000
	}
	if p.ExecDelayMs <= 0 {
		p.ExecDelayMs = 200
	}
	return p
}

// presets are the named plans of the chaos matrix. "mixed" deliberately
// exercises every virtual site at once.
var presets = []Plan{
	{Name: "steal-storm", StealDropPct: 30, StealDelayPct: 30, StealDelayCycles: 800},
	{Name: "suspend-churn", SpuriousPollPct: 4},
	{Name: "stalls", StallPct: 10, StallCycles: 3000},
	{Name: "spec-chaos", SpecAbortPct: 60},
	{Name: "mixed", StealDropPct: 15, StealDelayPct: 15, SpuriousPollPct: 2, StallPct: 5, SpecAbortPct: 25},
	// adversarial leans on the sites that stress the frame discipline the
	// hardest — forced suspensions, delayed steals and speculation churn —
	// and is the default rotation of the stack-safety fuzz harness.
	{Name: "adversarial", StealDropPct: 20, StealDelayPct: 25, StealDelayCycles: 600,
		SpuriousPollPct: 3, StallPct: 8, SpecAbortPct: 40},
	{Name: "serve-panic", ExecPanicPct: 35},
	{Name: "serve-latency", ExecDelayPct: 50, ExecDelayMs: 250},
	{Name: "serve-mixed", ExecPanicPct: 20, ExecDelayPct: 30, ExecDelayMs: 150},
}

// PlanNames lists the preset plan names, sorted.
func PlanNames() []string {
	names := make([]string, 0, len(presets))
	for _, p := range presets {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// SimPlanNames lists the presets that perturb simulations (at least one
// virtual or host-transparent site) — the chaos differential matrix.
func SimPlanNames() []string {
	var names []string
	for _, p := range presets {
		if p.StealDropPct > 0 || p.StealDelayPct > 0 || p.SpuriousPollPct > 0 ||
			p.StallPct > 0 || p.SpecAbortPct > 0 {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	return names
}

// PlanByName returns a copy of the named preset, or an error listing the
// valid names.
func PlanByName(name string) (Plan, error) {
	for _, p := range presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Plan{}, fmt.Errorf("fault: unknown plan %q (have %s)", name, strings.Join(PlanNames(), ", "))
}

// ParsePlan parses the command-line form "name" or "name:seed". The empty
// string and "none" mean no plan (nil).
func ParsePlan(s string) (*Plan, error) {
	if s == "" || s == "none" {
		return nil, nil
	}
	name, seedStr, hasSeed := strings.Cut(s, ":")
	p, err := PlanByName(name)
	if err != nil {
		return nil, err
	}
	if hasSeed {
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad plan seed %q: %v", seedStr, err)
		}
		p.Seed = seed
	}
	return &p, nil
}

// String renders the plan in its ParsePlan form.
func (p Plan) String() string {
	if p.Seed != 0 {
		return fmt.Sprintf("%s:%d", p.Name, p.Seed)
	}
	return p.Name
}

// Injection sites. Every site owns an independent generator stream.
const (
	siteStealDrop = iota
	siteStealDelay
	siteSpuriousPoll
	siteStall
	siteSpecAbort
	siteExecPanic
	siteExecDelay
	numSites
)

var siteNames = [numSites]string{
	"steal_drop", "steal_delay", "spurious_poll", "stall",
	"spec_abort", "exec_panic", "exec_delay",
}

// Injector draws injection decisions from a plan. A nil *Injector is the
// disabled injector: every hook is a single nil check and injects nothing.
//
// The virtual and host-transparent sites are consulted only from the
// scheduler coordinator (single-goroutine); the serving sites are
// stateless and safe for concurrent executor slots.
type Injector struct {
	plan    Plan
	streams [numSites]uint64
	counts  [numSites]atomic.Int64
}

// New builds an injector for the plan; a nil plan yields a nil injector.
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	f := &Injector{plan: p.withDefaults()}
	for i := range f.streams {
		// splitmix64 of (seed, site) keeps the streams independent: a site
		// that is consulted more often never shifts another site's draws.
		f.streams[i] = splitmix64(p.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
	}
	return f
}

// Plan returns the injector's plan (defaults applied).
func (f *Injector) Plan() Plan { return f.plan }

// splitmix64 is the standard 64-bit mixer (used for stream seeding and the
// stateless serving-site hash).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll advances a site's xorshift stream and reports whether a pct-percent
// event fires.
func (f *Injector) roll(site, pct int) bool {
	if pct <= 0 {
		return false
	}
	x := f.streams[site]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	f.streams[site] = x
	if int(x%100) >= pct {
		return false
	}
	f.counts[site].Add(1)
	return true
}

// StealDrop reports whether this steal request is lost in transit.
func (f *Injector) StealDrop() bool {
	if f == nil {
		return false
	}
	return f.roll(siteStealDrop, f.plan.StealDropPct)
}

// StealDelay returns the extra cycles this steal request spends in
// transit, or 0.
func (f *Injector) StealDelay() int64 {
	if f == nil {
		return 0
	}
	if !f.roll(siteStealDelay, f.plan.StealDelayPct) {
		return 0
	}
	return f.plan.StealDelayCycles
}

// SpuriousPoll reports whether the picked worker's poll signal should be
// spuriously raised, forcing a suspend/restart pair at its next poll point.
func (f *Injector) SpuriousPoll() bool {
	if f == nil {
		return false
	}
	return f.roll(siteSpuriousPoll, f.plan.SpuriousPollPct)
}

// Stall returns the cycles the picked worker stalls for, or 0.
func (f *Injector) Stall() int64 {
	if f == nil {
		return 0
	}
	if !f.roll(siteStall, f.plan.StallPct) {
		return 0
	}
	return f.plan.StallCycles
}

// ForceSpecAbort reports whether the throughput engine must discard the
// chain segment it is validating (host-transparent: a forced abort reruns
// the quantum non-speculatively, changing no output byte).
func (f *Injector) ForceSpecAbort() bool {
	if f == nil {
		return false
	}
	return f.roll(siteSpecAbort, f.plan.SpecAbortPct)
}

// servingRoll is the stateless serving-site decision: a hash of (seed,
// site, job key, attempt). Concurrent slots share no state, and a retry
// (attempt+1) re-rolls.
func (f *Injector) servingRoll(site int, pct int, key string, attempt int) bool {
	if pct <= 0 {
		return false
	}
	h := f.plan.Seed ^ uint64(site+1)*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xD1B54A32D192ED03
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001B3
	}
	if int(splitmix64(h)%100) >= pct {
		return false
	}
	f.counts[site].Add(1)
	return true
}

// ExecPanic reports whether the executor should panic for this
// (job, attempt) pair.
func (f *Injector) ExecPanic(key string, attempt int) bool {
	if f == nil {
		return false
	}
	return f.servingRoll(siteExecPanic, f.plan.ExecPanicPct, key, attempt)
}

// ExecDelay returns the latency spike for this (job, attempt) pair, or 0.
func (f *Injector) ExecDelay(key string, attempt int) time.Duration {
	if f == nil {
		return 0
	}
	if !f.servingRoll(siteExecDelay, f.plan.ExecDelayPct, key, attempt) {
		return 0
	}
	return time.Duration(f.plan.ExecDelayMs) * time.Millisecond
}

// Counts snapshots the per-site injection counters (sites that fired).
func (f *Injector) Counts() map[string]int64 {
	if f == nil {
		return nil
	}
	out := make(map[string]int64)
	for i := range f.counts {
		if n := f.counts[i].Load(); n > 0 {
			out[siteNames[i]] = n
		}
	}
	return out
}

// Total is the number of faults injected so far across all sites.
func (f *Injector) Total() int64 {
	if f == nil {
		return 0
	}
	var t int64
	for i := range f.counts {
		t += f.counts[i].Load()
	}
	return t
}

// Error is the typed value injected serving faults panic with (and the
// error the server classifies as the "fault" failure kind).
type Error struct {
	Site string
}

func (e *Error) Error() string { return "fault: injected " + e.Site }
