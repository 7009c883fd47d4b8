package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// The traced run replays operations through the same public calls that
// core.RunProgram, server.ExecuteOpts and core.Resume make, one layer at a
// time, with a span around each call. Span names are the layer names the
// per-layer metrics are reported under.
const (
	spanOp      = "op"
	spanCompile = "apps.compile"
	spanMem     = "mem.setup"
	spanRun     = "sched.run"
	spanResume  = "sched.resume"
	spanImport  = "machine.import"
	spanFinish  = "core.finish"
	spanExport  = "obs.export"
	spanEncode  = "snapshot.encode"
	spanDecode  = "snapshot.decode"
)

// span is one timed call. Spans of one operation share Op; Parent is the
// enclosing span's ID, -1 for an operation's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for one single-goroutine replay.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
}

func (r *recorder) end() {
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = int64(time.Since(r.t0))
}

// opSpans returns op's spans: its root's duration, and each layer's self
// time — the span's duration minus the part its child spans cover (children
// run one after another on the replay goroutine, so their durations add).
func (r *recorder) opSpans(op int) (total time.Duration, self map[string]time.Duration) {
	self = make(map[string]time.Duration)
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Op == op && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range r.spans {
		if s.Op != op {
			continue
		}
		self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
		if s.Parent < 0 {
			total = time.Duration(s.End - s.Start)
		}
	}
	return total, self
}

// write stores every span as JSON under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// runCounts are the per-operation counts a decomposed run reports next to
// its spans.
type runCounts struct {
	vcycles      int64 // virtual work the scheduler executed
	reserved     int64 // simulated memory words reserved
	artifactSize int   // obs artifacts (metrics + profile + trace) in bytes
	snapBytes    int   // encoded continuation size
	nonzero      int64 // nonzero memory words in the continuation
}

// runConfig is the one configuration shape every workload runs: the
// StackThreads runtime with the engine, JIT, host parallelism, cost model
// and memory sizes at their defaults. The benchmark refuses to run when the
// environment would override any of them, so core resolves exactly these.
func runConfig(workers int, seed uint64) core.Config {
	return core.Config{Mode: core.StackThreads, Workers: workers, Seed: seed}
}

// schedConfig is what core hands the scheduler for runConfig.
func schedConfig(cfg core.Config) sched.Config {
	return sched.Config{
		Mode:       sched.ModeST,
		Policy:     sched.StealOldest,
		Seed:       cfg.Seed,
		Engine:     sched.EngineSequential,
		Obs:        cfg.Obs,
		Fault:      cfg.Fault,
		Progress:   cfg.Progress,
		Contention: cfg.Contention,
		Checkpoint: cfg.Checkpoint,
	}
}

// prepareTraced is core's machine construction and memory setup.
func prepareTraced(r *recorder, prog *isa.Program, w *apps.Workload, cfg core.Config, n *runCounts) (*machine.Machine, []int64, error) {
	r.begin(spanMem)
	defer r.end()
	heap := w.HeapWords
	if heap == 0 {
		heap = 1 << 20
	}
	extra := int64(cfg.Workers) * (machine.DefaultStackWords + 8)
	n.reserved += int64(heap) + extra
	m := machine.New(prog, mem.NewReserved(heap, extra), isa.SPARC(), cfg.Workers, machine.Options{
		Seed: cfg.Seed,
		Obs:  cfg.Obs,
	})
	args := w.Args
	if w.Setup != nil {
		var err error
		if args, err = w.Setup(m.Mem); err != nil {
			return nil, nil, fmt.Errorf("setup %s: %w", w.Name, err)
		}
	}
	return m, args, nil
}

func compileTraced(r *recorder, w *apps.Workload) (*isa.Program, error) {
	r.begin(spanCompile)
	defer r.end()
	return w.Compile()
}

// finishTraced is core's run tail: instruction totals, the obs finish and
// the workload's own verification.
func finishTraced(r *recorder, m *machine.Machine, w *apps.Workload, cfg core.Config, sres *sched.Result) (*core.Result, error) {
	r.begin(spanFinish)
	defer r.end()
	res := &core.Result{
		RV: sres.RV, Time: sres.Time, WorkCycles: sres.WorkCycles,
		Steals: sres.Steals, Attempts: sres.Attempts, Rejects: sres.Rejects,
		Picks: sres.Picks, Stats: sres.Stats,
	}
	for _, st := range res.Stats {
		res.Instrs += st.Instrs
	}
	if cfg.Obs != nil {
		finishObs(cfg.Obs, m, res)
	}
	if w.Verify != nil {
		if err := w.Verify(m.Mem, res.RV); err != nil {
			return nil, fmt.Errorf("verify %s: %w", w.Name, err)
		}
	}
	return res, nil
}

// finishObs is core's obs finish: makespan, worker totals and the metrics
// registry, in core's order.
func finishObs(c *obs.Collector, m *machine.Machine, res *core.Result) {
	c.SetMakespan(res.Time)
	for i, w := range m.Workers {
		c.FinishWorker(i, w.Cycles)
	}
	reg := c.Metrics
	reg.Gauge("workers").Set(int64(len(m.Workers)))
	reg.Gauge("makespan_cycles").Set(res.Time)
	reg.Gauge("work_cycles").Set(res.WorkCycles)
	reg.Counter("instrs").Add(res.Instrs)
	reg.Counter("steals").Add(res.Steals)
	reg.Counter("steal_attempts").Add(res.Attempts)
	reg.Counter("steal_rejects").Add(res.Rejects)
	reg.Counter("profile_samples").Add(c.Samples())
	for _, st := range res.Stats {
		reg.Counter("calls").Add(st.Calls)
		reg.Counter("suspends").Add(st.Suspends)
		reg.Counter("restarts").Add(st.Restarts)
		reg.Counter("exports").Add(st.Exports)
		reg.Counter("shrinks").Add(st.Shrinks)
		reg.Counter("extends").Add(st.Extends)
		reg.Gauge("stack_high_water").Max(st.StackHighWater)
		reg.Counter("segments").Add(st.Segments)
		reg.Counter("segments_live").Add(st.SegmentsLive)
	}
}

// runTraced is core.RunProgram (scheduled modes) one layer at a time.
func runTraced(r *recorder, w *apps.Workload, cfg core.Config, n *runCounts) (*core.Result, *sched.Boundary, error) {
	prog, err := compileTraced(r, w)
	if err != nil {
		return nil, nil, err
	}
	m, args, err := prepareTraced(r, prog, w, cfg, n)
	if err != nil {
		return nil, nil, err
	}
	r.begin(spanRun)
	sres, err := sched.Run(m, w.Entry, args, schedConfig(cfg))
	r.end()
	var ye *sched.YieldError
	if errors.As(err, &ye) {
		for _, wk := range ye.Boundary.Mach.Workers {
			n.vcycles += wk.Cycles
		}
		return nil, ye.Boundary, nil
	}
	if err != nil {
		return nil, nil, err
	}
	n.vcycles += sres.WorkCycles
	res, err := finishTraced(r, m, w, cfg, sres)
	return res, nil, err
}

// resumeTraced is core.Resume one layer at a time; done is the work the
// capturing run had already executed.
func resumeTraced(r *recorder, w *apps.Workload, cfg core.Config, b *sched.Boundary, done int64, n *runCounts) (*core.Result, error) {
	prog, err := compileTraced(r, w)
	if err != nil {
		return nil, err
	}
	m, _, err := prepareTraced(r, prog, w, cfg, n)
	if err != nil {
		return nil, err
	}
	r.begin(spanImport)
	err = m.ImportState(b.Mach)
	if err == nil {
		err = cfg.Fault.ImportState(b.Fault)
	}
	r.end()
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	r.begin(spanResume)
	sres, err := sched.Resume(m, schedConfig(cfg), b.Sched)
	r.end()
	if err != nil {
		return nil, err
	}
	n.vcycles += sres.WorkCycles - done
	return finishTraced(r, m, w, cfg, sres)
}

// executeTraced is server.ExecuteOpts for a fresh scheduled-mode job, as an
// executor slot runs it: obs attached, a capture handle set, no store.
func executeTraced(r *recorder, req server.JobRequest, n *runCounts) (*server.JobOutput, error) {
	w, err := workloadFor(req.App, req.Full)
	if err != nil {
		return nil, err
	}
	col := obs.New()
	cfg := runConfig(req.Workers, req.Seed)
	cfg.Obs = col
	cfg.Progress = &obs.Progress{}
	cfg.Contention = &sched.Contention{}
	cfg.Checkpoint = &sched.Checkpoint{}
	res, _, err := runTraced(r, w, cfg, n)
	if err != nil {
		return nil, err
	}
	r.begin(spanExport)
	defer r.end()
	mjson, err := col.Metrics.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("metrics snapshot: %w", err)
	}
	var prof, tr bytes.Buffer
	col.WriteReport(&prof)
	if err := col.WriteChromeTrace(&tr); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	n.artifactSize = len(mjson) + prof.Len() + tr.Len()
	return &server.JobOutput{Result: res, Metrics: mjson, Profile: prof.String(), Trace: tr.Bytes()}, nil
}

// migrateTraced is one migrate operation one layer at a time: capture at the
// chosen pick, encode, decode, and resume to completion.
func migrateTraced(r *recorder, w *apps.Workload, t migrateTuple, pick int64, n *runCounts) (*core.Result, error) {
	cfg := runConfig(t.workers, t.seed)
	cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	_, b, err := runTraced(r, w, cfg, n)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("%s: run finished before pick %d", t.key(), pick)
	}
	done := n.vcycles
	r.begin(spanEncode)
	enc, err := snapshot.Encode(&snapshot.Snapshot{Key: t.key(), Mach: b.Mach, Sched: b.Sched, Fault: b.Fault})
	r.end()
	if err != nil {
		return nil, err
	}
	n.snapBytes = len(enc)
	for _, v := range b.Mach.Mem.Words {
		if v != 0 {
			n.nonzero++
		}
	}
	r.begin(spanDecode)
	snap, err := snapshot.Decode(enc)
	r.end()
	if err != nil {
		return nil, err
	}
	cfg.Checkpoint = nil
	return resumeTraced(r, w, cfg, &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault}, done, n)
}
