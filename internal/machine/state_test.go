package machine

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exportset"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestImportStateRejectsBadLayout checks that ImportState refuses images
// whose regions do not tile the address space the way this machine maps
// it, before sizing a page table from them. The "size 1<<60" case is sized
// consistently with its own region list, so only the layout check stands
// between it and a page table of 2^51 entries. The many-segment cases tile
// correctly and cost 24 payload bytes per segment, each of which would
// otherwise map a default-sized stack: 16 KiB of page table apiece.
func TestImportStateRejectsBadLayout(t *testing.T) {
	prog := mixProgram(t)
	const stack = DefaultStackWords
	build := func(segmented bool) *Machine {
		return New(prog, mem.New(1<<10), isa.SPARC(), 2, Options{SegmentedStacks: segmented})
	}
	// addSegs appends n segments to worker 1, tiled after the current end.
	addSegs := func(st *State, n int) {
		for range n {
			st.Workers[1].Segs = append(st.Workers[1].Segs, SegState{Lo: st.Mem.Size, Hi: st.Mem.Size + stack})
			st.Mem.Size += stack
		}
	}
	src := build(false)
	src.Mem.Store(src.Workers[1].WL.Lo, 9)
	good := src.ExportState()

	fresh := build(false)
	if err := fresh.ImportState(good); err != nil {
		t.Fatalf("importing an intact image: %v", err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), good) {
		t.Fatal("import round trip changed the state")
	}
	full := src.ExportState()
	addSegs(full, MaxSegments-1)
	if err := build(true).ImportState(full); err != nil {
		t.Fatalf("importing %d segments into a segmented machine: %v", MaxSegments, err)
	}

	cases := []struct {
		name      string
		segmented bool
		mutate    func(st *State)
	}{
		{"size 1<<60", false, func(st *State) {
			sg := &st.Workers[1].Segs[0]
			sg.Lo, sg.Hi = 1<<60-stack, 1<<60
			st.Mem.Size = 1 << 60
		}},
		{"segment not stack-sized", true, func(st *State) {
			st.Workers[1].Segs = append(st.Workers[1].Segs, SegState{Lo: st.Mem.Size, Hi: st.Mem.Size + 2*stack})
			st.Mem.Size += 2 * stack
		}},
		{"gap between regions", true, func(st *State) {
			st.Workers[1].Segs = append(st.Workers[1].Segs, SegState{Lo: st.Mem.Size + 1, Hi: st.Mem.Size + 1 + stack})
			st.Mem.Size += 1 + stack
		}},
		{"overlapping segments", true, func(st *State) {
			st.Workers[1].Segs = append(st.Workers[1].Segs, st.Workers[0].Segs[0])
		}},
		{"local storage resized", false, func(st *State) { st.Workers[0].WLHi++ }},
		{"no segments", false, func(st *State) {
			st.Mem.Size = st.Workers[1].WLHi
			st.Workers[1].Segs = nil
		}},
		{"second segment unsegmented", false, func(st *State) { addSegs(st, 1) }},
		{"thousands of segments unsegmented", false, func(st *State) { addSegs(st, 4096) }},
		{"thousands of segments segmented", true, func(st *State) { addSegs(st, 4096) }},
		{"one segment past the cap", true, func(st *State) { addSegs(st, MaxSegments) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := src.ExportState()
			tc.mutate(st)
			m := build(tc.segmented)
			var err error
			alloc := allocatedBy(func() { err = m.ImportState(st) })
			var ie *mem.ImageError
			if !errors.As(err, &ie) {
				t.Fatalf("ImportState = %v, want a *mem.ImageError", err)
			}
			if alloc > 1<<20 {
				t.Fatalf("rejected import allocated %d bytes", alloc)
			}
		})
	}
}

// allocatedBy reports the heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSegmentCap checks that a worker whose every segment stays pinned
// stops mapping at MaxSegments and continues on its current segment, so
// every state it exports passes checkLayout.
func TestSegmentCap(t *testing.T) {
	m := New(mixProgram(t), mem.New(1<<10), isa.SPARC(), 1, Options{StackWords: 1 << 10, SegmentedStacks: true})
	w := m.Workers[0]
	for range MaxSegments + 4 {
		if hi := w.Stack().Hi; w.seg().Exported.Empty() {
			w.seg().Exported.Push(exportset.Entry{FP: hi - 2, Low: hi - 4})
		}
		w.switchSegmentIfPinned()
	}
	if len(w.Segs) != MaxSegments || w.Stats.Segments != MaxSegments || w.cur != MaxSegments-1 {
		t.Fatalf("%d segments (stats %d, current %d), want %d", len(w.Segs), w.Stats.Segments, w.cur, MaxSegments)
	}
	if err := New(m.Prog, mem.New(1<<10), isa.SPARC(), 1, m.Opts).ImportState(m.ExportState()); err != nil {
		t.Fatalf("importing a capped state: %v", err)
	}
}
