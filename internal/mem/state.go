package mem

import "fmt"

// State is a complete, restorable image of a Memory: its mapped size, the
// contents of every page that holds a nonzero word, and the heap bump
// pointer. Pages that read as all zero are left out whether or not they
// were ever materialized, so the image is a function of memory contents
// alone. The guard size, heap bounds and region layout are not stored —
// they are pure functions of how the memory was constructed (heap capacity,
// then MapStack/MapWords calls in order), so a resumed run rebuilds them by
// reconstructing the machine the same way and then installing this image
// on top.
type State struct {
	// Size is the number of mapped words, guard included.
	Size Addr
	// Index lists the numbers of the nonzero pages in ascending order.
	Index []int64
	// Words holds the pages named by Index back to back, PageWords each.
	Words    []int64
	HeapNext Addr
}

// ImageError reports a structurally invalid memory image. Images cross
// trust boundaries (peer steal grants, checkpoint directories), so they are
// checked before anything is sized from them.
type ImageError struct {
	Reason string
}

func (e *ImageError) Error() string { return "mem: invalid image: " + e.Reason }

func imageErrorf(format string, args ...any) error {
	return &ImageError{Reason: fmt.Sprintf(format, args...)}
}

// ExportState deep-copies the memory image.
func (m *Memory) ExportState() *State {
	st := &State{Size: m.size, HeapNext: m.heapNext}
	for p, pg := range m.pages {
		if pg != nil && *pg != (Page{}) {
			st.Index = append(st.Index, int64(p))
		}
	}
	if len(st.Index) == 0 {
		return st
	}
	st.Words = make([]int64, len(st.Index)*PageWords)
	for i, p := range st.Index {
		copy(st.Words[i*PageWords:], m.pages[p][:])
	}
	return st
}

// Validate checks the image's internal consistency without allocating:
// Size covers at least the guard, Index is strictly ascending and names
// only pages below Size, Words holds exactly one page per Index entry, and
// no word outside [Guard, Size) is nonzero. It does not bound Size itself;
// that takes the region layout the image belongs to (machine.State.Validate).
func (st *State) Validate() error {
	if st.Size < Guard {
		return imageErrorf("size %d below the %d-word guard", st.Size, Guard)
	}
	pages := st.Size >> PageShift
	if st.Size&PageMask != 0 {
		pages++
	}
	if int64(len(st.Words)) != int64(len(st.Index))*PageWords {
		return imageErrorf("%d words for %d pages", len(st.Words), len(st.Index))
	}
	prev := int64(-1)
	for _, p := range st.Index {
		if p <= prev || p >= pages {
			return imageErrorf("page index %d after %d (size %d words, %d pages)", p, prev, st.Size, pages)
		}
		prev = p
	}
	if len(st.Index) == 0 {
		return nil
	}
	// Only page 0 holds guard words and only the last page can reach past
	// Size, since every index is below ceil(Size/PageWords).
	if st.Index[0] == 0 {
		for a, v := range st.Words[:Guard] {
			if v != 0 {
				return imageErrorf("nonzero word at guard address %d", a)
			}
		}
	}
	last := prev << PageShift
	tail := st.Words[len(st.Words)-PageWords:]
	for a := st.Size; a < last+PageWords; a++ {
		if tail[a-last] != 0 {
			return imageErrorf("nonzero word at address %d, past size %d", a, st.Size)
		}
	}
	return nil
}

// ImportState replaces the memory image with a previously exported one. The
// image may be larger than the current mapping (the checkpointed run mapped
// extra stack segments after construction); it can never be smaller,
// because the importer reconstructs the machine with the same worker count
// and stack sizes before installing the image. The page table built at
// construction is reused: every page setup materialized is zeroed and kept
// as a spare, and the table is extended to st.Size and filled from
// st.Index, spare pages first. So the image must have passed Validate, and
// callers holding an untrusted image bound its Size first.
func (m *Memory) ImportState(st *State) error {
	if st.Size < m.size {
		return fmt.Errorf("mem: import image has %d words, current mapping needs %d",
			st.Size, m.size)
	}
	if st.HeapNext < m.heapLo || st.HeapNext > m.heapHi {
		return fmt.Errorf("mem: import heap pointer %d outside heap [%d,%d)",
			st.HeapNext, m.heapLo, m.heapHi)
	}
	m.recyclePages()
	m.extend(st.Size)
	for i, p := range st.Index {
		pg := m.newPage()
		copy(pg[:], st.Words[i*PageWords:])
		m.pages[p] = pg
	}
	m.heapNext = st.HeapNext
	return nil
}
