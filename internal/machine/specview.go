package machine

import (
	"repro/internal/mem"
)

// This file implements chained speculation over page-granular private
// memory views — the machine half of the throughput engine
// (sched/engine_throughput.go). A chain runs many consecutive quanta
// ("segments") of one virtual worker ahead of its scheduler picks, against
// a private copy-on-first-touch view of shared memory:
//
//   - The view privatizes whole pages (mem.PageWords words, the shared
//     page table's own geometry) on the first load or store that touches
//     them, copying the shared page or zero-filling when it was never
//     materialized. All later accesses hit the private copy at array
//     speed, which keeps the interpreter's batched fast path available
//     during speculation (runBlockView) — the property the engine's host
//     speedup depends on.
//
//   - Every store is additionally appended to the segment's write log. At
//     the segment's oracle pick the engine flushes exactly those writes to
//     shared memory, so the shared state evolves word for word as the
//     sequential engine's would.
//
//   - Pages double as the conflict-detection granule: the engine indexes
//     which chains privatized which pages and kills a chain the moment any
//     other writer touches one of its pages. Every address a segment loads
//     or stores lies in a page it privatized, so the touched pages cover
//     everything the segment's outcome depends on in shared memory (see
//     the engine's file comment for the full argument).
//
// A chain runs on the live Worker struct: segments execute back to back
// without restoring between them, and Finish returns the worker to its
// launch state. The engine only runs chains while the coordinator is
// blocked (the launch phase is bulk-synchronous), so shared memory, the
// thunk map and the observability collector are read-only for the entire
// time any chain executes: the phase is race-free by construction.

// memWrite is one logged speculative store.
type memWrite struct {
	a, v int64
}

// pageView is a chain's private view of shared memory: pages are copied
// from the shared page table on first touch and all accesses hit the
// copies.
type pageView struct {
	// size is the shared-memory size frozen at chain launch; bounds checks
	// test against it so traps replicate the oracle's exactly. A chain is
	// invalid once shared memory grows past it.
	size int64
	// src is the shared page table at launch. It and the pages it points
	// to are only read during the bulk-synchronous launch phase, when no
	// shared store, page materialization or remap can happen, so reading
	// them from host goroutines is race-free.
	src []*mem.Page
	// pages maps page number to the private copy (nil = untouched).
	pages []*mem.Page
	// touched lists privatized page numbers in first-touch order; the
	// engine uses it to index the chain for conflict detection and to
	// undo that indexing when the chain dies.
	touched []int64
}

// privatize copies page p from shared memory into the view; a page shared
// memory never materialized privatizes as zeros.
func (v *pageView) privatize(p int64) *mem.Page {
	pg := new(mem.Page)
	if src := v.src[p]; src != nil {
		*pg = *src
	}
	v.pages[p] = pg
	v.touched = append(v.touched, p)
	return pg
}

// load reads a through the view, privatizing its page on first touch.
func (v *pageView) load(a int64) int64 {
	if a < mem.Guard || a >= v.size {
		panic(&mem.Trap{Kind: "load", Addr: a})
	}
	pg := v.pages[a>>mem.PageShift]
	if pg == nil {
		pg = v.privatize(a >> mem.PageShift)
	}
	return pg[a&mem.PageMask]
}

// store writes a through the view. The caller logs the write.
func (v *pageView) store(a, val int64) {
	if a < mem.Guard || a >= v.size {
		panic(&mem.Trap{Kind: "store", Addr: a})
	}
	pg := v.pages[a>>mem.PageShift]
	if pg == nil {
		pg = v.privatize(a >> mem.PageShift)
	}
	pg[a&mem.PageMask] = val
}

// ChainSeg is one speculated quantum of a chain, held by the throughput
// engine until the worker's oracle pick adopts or discards it.
type ChainSeg struct {
	// Ev is the event Run returned at the end of the quantum.
	Ev Event

	startCycles int64
	startPoll   bool
	post        *workerSnap
	st          *specState
}

// Matches reports whether w still holds the state this segment launched
// from: its clock and poll signal are untouched since the previous segment
// committed (the scheduler advances a running worker in no other way).
func (s *ChainSeg) Matches(w *Worker) bool {
	return w.Cycles == s.startCycles && w.PollSignal == s.startPoll
}

// ConsumedThunks returns the restart-thunk pcs this segment consumed.
func (s *ChainSeg) ConsumedThunks() []int64 { return s.st.thunks }

// ChainRun is one chained speculation in progress: a pipeline of segments
// speculated ahead of one virtual worker's oracle picks.
type ChainRun struct {
	w    *Worker
	pre  *workerSnap
	view *pageView
	// consumed accumulates thunk pcs consumed by earlier segments so later
	// segments observe their consumption (the shared map is untouched
	// until the segments commit).
	consumed []int64
	// open reports the live worker currently holds in-chain state (the
	// last segment's post state) rather than its launch state.
	open bool
	// dead is set once a segment aborted; no further segments may run.
	dead bool
}

// BeginChain starts a chained speculation from w's current state. It
// returns nil when chaining is impossible (instruction tracing must follow
// the oracle's order). The caller must bracket the chain with Finish before
// the scheduler looks at the worker again.
func (w *Worker) BeginChain() *ChainRun {
	if w.M.Opts.Trace != nil {
		return nil
	}
	src := w.M.Mem.Pages()
	return &ChainRun{
		w:   w,
		pre: w.capture(),
		view: &pageView{
			size:  w.M.Mem.Size(),
			src:   src,
			pages: make([]*mem.Page, len(src)),
		},
	}
}

// ViewSize returns the shared-memory size the chain's view was frozen at.
func (c *ChainRun) ViewSize() int64 { return c.view.size }

// TouchedPages returns the page numbers the chain has privatized so far
// (reads and writes both privatize, so this is a superset of every address
// the chain's segments depend on).
func (c *ChainRun) TouchedPages() []int64 { return c.view.touched }

// RunSegment speculates the next quantum of the chain on the live worker
// and returns it, or nil when the quantum aborted (an order-dependent
// global operation, a foreign panic, or fault injection); after an abort
// the worker is back at its launch state and the chain is dead. Aborting
// never invalidates segments returned earlier — they commit or discard at
// their own oracle picks.
func (c *ChainRun) RunSegment(budget int64) (seg *ChainSeg) {
	if c.dead {
		return nil
	}
	w := c.w
	st := &specState{view: c.view, prevThunks: c.consumed}
	w.spec = st
	startCycles, startPoll := w.Cycles, w.PollSignal
	defer func() {
		w.spec = nil
		if recover() != nil {
			// The abort sentinel and any other panic both kill the chain;
			// the worker returns to its launch state. If the panic reflects
			// a real fault the oracle can reach, the direct rerun at the
			// pick reproduces it deterministically.
			w.restore(c.pre)
			c.open = false
			c.dead = true
			seg = nil
		}
	}()
	ev := w.Run(budget)
	post := w.capture()
	c.consumed = append(c.consumed, st.thunks...)
	c.open = true
	return &ChainSeg{Ev: ev, startCycles: startCycles, startPoll: startPoll, post: post, st: st}
}

// Finish returns the live worker to the chain's launch state (a no-op when
// a segment abort already did). Must be called exactly once, after the last
// RunSegment and before the scheduler's replay looks at the worker.
func (c *ChainRun) Finish() {
	if c.open {
		c.w.restore(c.pre)
		c.open = false
	}
	c.dead = true
}

// CommitSeg adopts segment seg at the worker's oracle pick: install the
// post-quantum state, flush the segment's write log to shared memory (in
// program order, bypassing the store hook — the engine handles conflict
// indexing itself via onPage), consume the logged thunks, and replay
// buffered observability emissions. onPage, when non-nil, is called with
// the page number of each flushed write; consecutive duplicates are
// suppressed, other duplicates may occur.
func (c *ChainRun) CommitSeg(seg *ChainSeg, onPage func(page int64)) {
	w := c.w
	w.restore(seg.post)
	if len(seg.st.wlog) > 0 {
		last := int64(-1)
		for _, wr := range seg.st.wlog {
			w.M.Mem.Store(wr.a, wr.v)
			if onPage != nil {
				if p := wr.a >> mem.PageShift; p != last {
					last = p
					onPage(p)
				}
			}
		}
	}
	for _, pc := range seg.st.thunks {
		delete(w.M.thunks, pc)
	}
	if col := w.M.Opts.Obs; col != nil {
		for _, e := range seg.st.events {
			if e.span {
				col.Span(e.start, e.end, w.ID, e.name, e.args...)
			} else {
				col.Instant(e.start, w.ID, e.name, e.args...)
			}
		}
		for _, v := range seg.st.expObs {
			col.ExportedSize.Observe(v)
		}
		for _, sm := range seg.st.samples {
			w.Obs.AddSample(sm.weight, sm.pcs)
		}
	}
}
