package machine

import (
	"errors"
	"slices"

	"repro/internal/exportset"
	"repro/internal/isa"
	"repro/internal/obs"
)

// This file holds the worker-side speculation substrate shared by every
// chained speculation of the throughput engine (specview.go,
// sched/engine_throughput.go): the specState a speculative quantum runs
// under, the memory and thunk accessors that consult it, the abort sentinel
// for order-dependent operations (heap allocation, the shared PRNG, thunk
// creation, program output), buffered observability emissions, and the
// capture/restore pair that snapshots a worker's architectural state. While
// w.spec is non-nil the worker runs against its chain's private page view;
// the shared machine state is only read.

// errSpecAbort is the sentinel unwound when a speculative quantum reaches an
// operation that cannot be speculated (see Worker.specForbid).
var errSpecAbort = errors.New("machine: speculative quantum aborted")

// specState is the private execution view of one speculative quantum (one
// chain segment).
type specState struct {
	// thunks lists restart-thunk pcs consumed by this quantum. The shared
	// map is left untouched; commit performs the deletes.
	thunks []int64
	// view is the chain's page-granular private view of shared memory
	// (specview.go): loads and stores hit privatized pages and every store
	// is logged in wlog.
	view *pageView
	// wlog records this quantum's stores in program order; the chain commit
	// flushes exactly these words to shared memory.
	wlog []memWrite
	// prevThunks lists thunk pcs consumed by earlier segments of the same
	// chain; they count as consumed for this quantum too.
	prevThunks []int64
	// events, samples and expObs buffer observability emissions that would
	// otherwise mutate the shared Collector; commit replays them in order.
	events  []specEvent
	samples []specSample
	expObs  []int64
}

// specEvent is one buffered Collector.Span/Instant emission.
type specEvent struct {
	span       bool
	start, end int64
	name       string
	args       []obs.Arg
}

// specSample is one buffered profiler observation.
type specSample struct {
	weight int64
	pcs    []int64
}

// consumed reports whether the quantum already took the thunk behind pc
// (mirroring the map delete the non-speculative path performs).
func (s *specState) consumed(pc int64) bool {
	for _, p := range s.thunks {
		if p == pc {
			return true
		}
	}
	for _, p := range s.prevThunks {
		if p == pc {
			return true
		}
	}
	return false
}

// memLoad is the worker-side memory read: through the chain's page view
// during speculation, a plain shared load otherwise.
func (w *Worker) memLoad(a int64) int64 {
	if s := w.spec; s != nil {
		return s.view.load(a)
	}
	return w.M.Mem.Load(a)
}

// memStore is the worker-side memory write: into the chain's page view and
// write log during speculation; otherwise a shared store, reported to the
// machine's store hook (the engine's conflict record) when one is
// installed.
func (w *Worker) memStore(a, v int64) {
	if s := w.spec; s != nil {
		s.view.store(a, v)
		s.wlog = append(s.wlog, memWrite{a, v})
		return
	}
	if h := w.M.storeHook; h != nil {
		h(a)
	}
	w.M.Mem.Store(a, v)
}

// takeThunk consumes the thunk behind pc on this worker's behalf. During
// speculation the shared map is only read; the consumption is logged and a
// second take of the same pc fails exactly as it would after the real
// delete.
func (w *Worker) takeThunk(pc int64) (*thunk, bool) {
	if s := w.spec; s != nil {
		if s.consumed(pc) {
			return nil, false
		}
		t, ok := w.M.thunks[pc]
		if ok {
			s.thunks = append(s.thunks, pc)
		}
		return t, ok
	}
	return w.M.takeThunk(pc)
}

// peekThunk is the read-only thunk lookup used by stack walks (CountThreads,
// the invariant checker, the profiler): it respects speculative consumption
// without consuming anything itself.
func (w *Worker) peekThunk(pc int64) (*thunk, bool) {
	t, ok := w.M.thunks[pc]
	if ok && w.spec != nil && w.spec.consumed(pc) {
		return nil, false
	}
	return t, ok
}

// newThunkPC registers a restart thunk. Thunk pcs are drawn from a
// machine-global counter, so creating one is order-dependent and aborts any
// speculation in progress.
func (w *Worker) newThunkPC(t *thunk) int64 {
	w.specForbid()
	return w.M.newThunkPC(t)
}

// specForbid aborts the speculative quantum, if any: the caller is about to
// perform an operation whose outcome depends on machine-global order (heap
// bump allocation, the shared PRNG, thunk numbering, program output). The
// quantum will rerun non-speculatively at its oracle pick.
func (w *Worker) specForbid() {
	if w.spec != nil {
		panic(errSpecAbort)
	}
}

// obsInstant emits an instant event on this worker's track, buffering it
// during speculation. Callers guard on w.Obs != nil.
func (w *Worker) obsInstant(t int64, name string, args ...obs.Arg) {
	if s := w.spec; s != nil {
		s.events = append(s.events, specEvent{start: t, name: name, args: args})
		return
	}
	w.M.Opts.Obs.Instant(t, w.ID, name, args...)
}

// obsSpan emits a span event on this worker's track, buffering it during
// speculation. Callers guard on w.Obs != nil.
func (w *Worker) obsSpan(start, end int64, name string, args ...obs.Arg) {
	if s := w.spec; s != nil {
		s.events = append(s.events, specEvent{span: true, start: start, end: end, name: name, args: args})
		return
	}
	w.M.Opts.Obs.Span(start, end, w.ID, name, args...)
}

// segSnap is one stack segment's restorable state. Segment identity and
// regions never change inside a quantum (mapping new segments is a
// scheduler-level operation), so only the exported set needs copying.
type segSnap struct {
	exported exportset.Set
}

// workerSnap is a worker's complete architectural state at a quantum
// boundary. Context pointers are shared, not copied: a Context is immutable
// once built.
type workerSnap struct {
	regs   [isa.NumRegs]int64
	pc     int64
	cycles int64
	err    error
	stats  Stats
	cur    int
	poll   bool
	ready  []*Context
	free   []int
	segs   []segSnap
	obs    obs.WorkerObs
}

// capture snapshots the worker's architectural state.
func (w *Worker) capture() *workerSnap {
	s := &workerSnap{
		regs:   w.Regs,
		pc:     w.PC,
		cycles: w.Cycles,
		err:    w.Err,
		stats:  w.Stats,
		cur:    w.cur,
		poll:   w.PollSignal,
		ready:  w.ReadyQ.snapshot(),
		free:   slices.Clone(w.free),
	}
	for _, sg := range w.Segs {
		s.segs = append(s.segs, segSnap{exported: sg.Exported.Clone()})
	}
	if w.Obs != nil {
		s.obs = w.Obs.Snapshot()
	}
	return s
}

// restore installs a previously captured state. The snapshot's slices move
// into the worker (each snapshot is restored at most once).
func (w *Worker) restore(s *workerSnap) {
	if len(s.segs) != len(w.Segs) {
		panic("machine: segment count changed inside a speculative quantum")
	}
	w.Regs = s.regs
	w.PC = s.pc
	w.Cycles = s.cycles
	w.Err = s.err
	w.Stats = s.stats
	w.cur = s.cur
	w.PollSignal = s.poll
	w.ReadyQ.restoreFrom(s.ready)
	w.free = s.free
	for i := range s.segs {
		w.Segs[i].Exported = s.segs[i].exported
	}
	if w.Obs != nil {
		w.Obs.Restore(s.obs)
	}
}

// HasThunk reports whether the thunk behind pc is still registered (the
// engine validates that a segment's consumed thunks were not taken by an
// earlier-committed quantum).
func (m *Machine) HasThunk(pc int64) bool {
	_, ok := m.thunks[pc]
	return ok
}

// SetStoreHook installs (or clears, with nil) the observer called with the
// address of every non-speculative shared-memory store. The throughput
// engine uses it to kill chains whose pages the replay phase writes; it
// must only be changed when no speculation is executing.
func (m *Machine) SetStoreHook(h func(a int64)) { m.storeHook = h }
