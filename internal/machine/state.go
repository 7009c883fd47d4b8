package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/exportset"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file implements whole-machine state export/import — the substrate of
// checkpoint/resume and cluster-level job migration. ExportState produces a
// fully self-contained, host-independent value: every field is plain data,
// so the snapshot codec can serialize it and a different process can
// rebuild an identical machine from it.
//
// The contract is exactness: reconstruct the machine the same way it was
// originally built (same program, memory sizes, cost model, worker count,
// options), call ImportState with a state exported at a scheduler pick
// boundary, and the resumed run is byte-identical to the undisturbed one —
// the round-trip property tests in internal/sched prove it.

// ContextState is the serializable form of a suspended thread Context.
type ContextState struct {
	ResumePC int64
	Top      int64
	Bottom   int64
	Regs     [isa.NumCalleeSave]int64
}

// SegState is one physical stack segment: its address region and the
// exported set of frames retained in it.
type SegState struct {
	Lo, Hi   int64
	Exported []exportset.Entry
}

// WorkerState is one worker's complete architectural state.
type WorkerState struct {
	Regs   [isa.NumRegs]int64
	PC     int64
	Cycles int64
	Stats  Stats
	Cur    int
	Free   []int
	Poll   bool
	WLLo   int64
	WLHi   int64
	Segs   []SegState
	Ready  []ContextState
}

// ThunkState is one pending restart thunk together with its magic pc.
type ThunkState struct {
	PC       int64
	ResumePC int64
	Callsite int64
	IsFork   bool
	FP       int64
	Regs     [isa.NumCalleeSave]int64
}

// State is a machine's complete restorable state at a quiescent boundary:
// the memory image, every worker, the pending restart thunks, and the
// machine-global counters (thunk numbering, PRNG).
type State struct {
	Mem       *mem.State
	Workers   []WorkerState
	Thunks    []ThunkState
	NextThunk int64
	Rng       uint64
}

// ExportState captures the machine's complete state. It must be called at a
// quiescent point (a scheduler pick boundary): no worker mid-quantum.
// Everything is deep-copied.
func (m *Machine) ExportState() *State {
	st := &State{
		Mem:       m.Mem.ExportState(),
		NextThunk: m.nextThunk,
		Rng:       m.rng,
	}
	for _, w := range m.Workers {
		ws := WorkerState{
			Regs:   w.Regs,
			PC:     w.PC,
			Cycles: w.Cycles,
			Stats:  w.Stats,
			Cur:    w.cur,
			Free:   slices.Clone(w.free),
			Poll:   w.PollSignal,
			WLLo:   w.WL.Lo,
			WLHi:   w.WL.Hi,
		}
		for _, sg := range w.Segs {
			ws.Segs = append(ws.Segs, SegState{
				Lo: sg.Region.Lo, Hi: sg.Region.Hi,
				Exported: sg.Exported.Export(),
			})
		}
		for _, c := range w.ReadyQ.snapshot() {
			ws.Ready = append(ws.Ready, ContextState{
				ResumePC: c.ResumePC, Top: c.Top, Bottom: c.Bottom, Regs: c.Regs,
			})
		}
		st.Workers = append(st.Workers, ws)
	}
	// The thunk map iterates in arbitrary order; pcs are unique, so sorting
	// by pc makes the export deterministic.
	for pc, t := range m.thunks {
		st.Thunks = append(st.Thunks, ThunkState{
			PC: pc, ResumePC: t.resumePC, Callsite: t.callsite,
			IsFork: t.isFork, FP: t.fp, Regs: t.regs,
		})
	}
	sort.Slice(st.Thunks, func(i, j int) bool { return st.Thunks[i].PC < st.Thunks[j].PC })
	return st
}

// Validate checks the state's memory image before anything is sized from
// it: the image must be well formed (mem.State.Validate), and its size must
// equal the highest end of any region the workers name. Memory is mapped
// only by MapStack/MapWords and never unmapped, and every mapping becomes a
// worker's stack segment or worker-local storage, so that bound is exact. A
// violation is a *mem.ImageError.
func (st *State) Validate() error {
	if st.Mem == nil {
		return &mem.ImageError{Reason: "no memory image"}
	}
	if err := st.Mem.Validate(); err != nil {
		return err
	}
	end := int64(0)
	for i := range st.Workers {
		ws := &st.Workers[i]
		end = max(end, ws.WLHi)
		for _, sg := range ws.Segs {
			end = max(end, sg.Hi)
		}
	}
	if st.Mem.Size != end {
		return &mem.ImageError{Reason: fmt.Sprintf("size %d words, but the workers' regions end at %d", st.Mem.Size, end)}
	}
	return nil
}

// checkLayout verifies that the regions the imported workers name tile the
// address space above the heap exactly as this machine maps it: worker-local
// storage of wlWords words and stack segments of Opts.StackWords words, back
// to back from the heap's end. Each worker holds one segment, or up to
// MaxSegments under Opts.SegmentedStacks. Together with Validate's size
// bound this caps the page table an import extends to at MaxSegments times
// the one this machine built at construction, however the image was made.
// A violation is a *mem.ImageError.
func (m *Machine) checkLayout(st *State) error {
	maxSegs := 1
	if m.Opts.SegmentedStacks {
		maxSegs = MaxSegments
	}
	var rs []mem.Region
	for i := range st.Workers {
		ws := &st.Workers[i]
		if n := len(ws.Segs); n == 0 || n > maxSegs {
			return &mem.ImageError{Reason: fmt.Sprintf("worker %d has %d stack segments, want 1 to %d", i, n, maxSegs)}
		}
		if ws.WLHi-ws.WLLo != wlWords {
			return &mem.ImageError{Reason: fmt.Sprintf("worker %d local storage [%d,%d) is not %d words", i, ws.WLLo, ws.WLHi, wlWords)}
		}
		rs = append(rs, mem.Region{Lo: ws.WLLo, Hi: ws.WLHi})
		for _, sg := range ws.Segs {
			if sg.Hi-sg.Lo != m.Opts.StackWords {
				return &mem.ImageError{Reason: fmt.Sprintf("worker %d stack segment [%d,%d) is not %d words", i, sg.Lo, sg.Hi, m.Opts.StackWords)}
			}
			rs = append(rs, mem.Region{Lo: sg.Lo, Hi: sg.Hi})
		}
	}
	slices.SortFunc(rs, func(a, b mem.Region) int { return cmp.Compare(a.Lo, b.Lo) })
	next := m.Mem.HeapHi()
	for _, r := range rs {
		if r.Lo != next {
			return &mem.ImageError{Reason: fmt.Sprintf("region [%d,%d) does not start at the end of the previous one, %d", r.Lo, r.Hi, next)}
		}
		next = r.Hi
	}
	return nil
}

// ImportState installs a previously exported state onto a machine that was
// reconstructed the same way as the exporting one (same program, memory
// sizes, cost model, worker count, options). The state's slices are copied,
// never aliased.
func (m *Machine) ImportState(st *State) error {
	if len(st.Workers) != len(m.Workers) {
		return fmt.Errorf("machine: import has %d workers, machine has %d",
			len(st.Workers), len(m.Workers))
	}
	if err := st.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := m.checkLayout(st); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := m.Mem.ImportState(st.Mem); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	for i, ws := range st.Workers {
		w := m.Workers[i]
		if ws.Cur < 0 || ws.Cur >= len(ws.Segs) {
			return fmt.Errorf("machine: import worker %d current segment %d out of range", i, ws.Cur)
		}
		w.Regs = ws.Regs
		w.PC = ws.PC
		w.Cycles = ws.Cycles
		w.Err = nil
		w.Stats = ws.Stats
		w.cur = ws.Cur
		w.free = slices.Clone(ws.Free)
		w.PollSignal = ws.Poll
		w.WL = mem.Region{Lo: ws.WLLo, Hi: ws.WLHi}
		w.Segs = w.Segs[:0]
		for _, sg := range ws.Segs {
			w.Segs = append(w.Segs, &StackSegment{
				Region:   mem.Region{Lo: sg.Lo, Hi: sg.Hi},
				Exported: exportset.Import(sg.Exported),
			})
		}
		ready := make([]*Context, 0, len(ws.Ready))
		for _, c := range ws.Ready {
			ready = append(ready, &Context{
				ResumePC: c.ResumePC, Top: c.Top, Bottom: c.Bottom, Regs: c.Regs,
			})
		}
		w.ReadyQ.restoreFrom(ready)
	}
	m.thunks = make(map[int64]*thunk, len(st.Thunks))
	for _, ts := range st.Thunks {
		m.thunks[ts.PC] = &thunk{
			resumePC: ts.ResumePC, callsite: ts.Callsite,
			isFork: ts.IsFork, fp: ts.FP, regs: ts.Regs,
		}
	}
	m.nextThunk = st.NextThunk
	m.rng = st.Rng
	return nil
}
