// Package mem implements the simulated word-addressed memory that the
// StackThreads/MP reproduction runs against.
//
// The real StackThreads/MP manipulates native stack frames; Go's runtime
// owns goroutine stacks and moves them, so frame words cannot be patched in
// place. This package substitutes a stable, word-addressed space backed by
// a table of 512-word pages: like a native stack reserved large and
// committed lazily, a page costs host memory only once a run stores a
// nonzero word into it, so setup, checkpoint images and their codec scale
// with the pages a run touched rather than the address space it mapped.
// Stacks are contiguous regions growing toward lower addresses, and a
// shared heap serves allocations. All frame-link surgery performed by the
// runtime (reading and patching return-address and saved-FP slots) happens
// on these words.
package mem

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Addr is a simulated memory address, measured in 64-bit words.
type Addr = int64

// Trap describes a memory access fault by a simulated program. The machine
// converts it into a run error; it is not used for host-program bugs.
type Trap struct {
	Kind string // "load", "store", "bounds"
	Addr Addr
}

func (t *Trap) Error() string {
	return fmt.Sprintf("memory trap: %s at address %d", t.Kind, t.Addr)
}

// Memory is the paged simulated address space shared by all workers.
//
// Layout (low addresses first):
//
//	[0, Guard)                    — unmapped guard region (address 0 stays
//	                                invalid so null pointers trap)
//	[Guard, Guard+heap)           — shared heap (bump allocated, lock is the
//	                                scheduler's concern)
//	worker stacks                 — one region per worker, each growing
//	                                toward lower addresses
//	worker-local storage          — a few words per worker (maxE cell, ids)
//
// Everything in [Guard, Size()) is mapped; only the pages a run has stored
// a nonzero word into are backed by host memory.
//
// A Memory has one owner, which calls Release once nothing reads it any
// more: core releases each run's memory after the run's final audit,
// metrics and Verify. Release recycles the page table and the pages, so the
// next Memory built by New, or filled by Store and ImportState, reuses them
// instead of allocating and zeroing fresh ones.
type Memory struct {
	// pages is the page table, indexed by address >> PageShift. A nil
	// entry is a mapped page whose words are all zero.
	pages []*Page
	// spare holds zero pages ready to back the next materialized ones:
	// the pages of a released memory, and those ImportState took out of
	// the table.
	spare    []*Page
	size     Addr
	heapLo   Addr
	heapNext Addr
	heapHi   Addr
}

// Page geometry: the unit of lazy materialization and of memory images.
const (
	PageShift = 9
	PageWords = 1 << PageShift
	PageMask  = PageWords - 1
)

// Page is the backing store of one materialized page.
type Page = [PageWords]int64

// Guard is the number of unmapped low words; address 0 always traps.
const Guard Addr = 16

// parts is what Release recycles: a page table, nil up to its capacity,
// and zero pages. New takes one whole, so the pages a memory releases back
// the next memory's stores and imports.
type parts struct{ table, spare []*Page }

// free holds released parts.
var free sync.Pool // *parts

// New creates a memory with the given heap capacity in words, built from
// released parts when some are free.
func New(heapWords int) *Memory {
	p, _ := free.Get().(*parts)
	return newFrom(heapWords, p)
}

// newFrom is New on p's table and pages; p may be nil.
func newFrom(heapWords int, p *parts) *Memory {
	if heapWords < 0 {
		panic("mem: negative heap size")
	}
	m := &Memory{heapLo: Guard, heapNext: Guard, heapHi: Guard + Addr(heapWords)}
	if p != nil {
		m.pages, m.spare = p.table[:0], p.spare
	}
	m.extend(m.heapHi)
	return m
}

// Release zeroes the memory's materialized pages and hands them, its spare
// pages and its page table back for New to reuse, and leaves the memory
// empty: every later access traps. Only the owner calls it, once nothing
// will read the memory again; the Pages slice it handed out is dead after
// it.
func (m *Memory) Release() {
	if p := m.release(); p != nil {
		free.Put(p)
	}
}

// release is Release returning the parts instead of freeing them; nil when
// the memory has none.
func (m *Memory) release() *parts {
	m.recyclePages()
	var p *parts
	if cap(m.pages) > 0 || len(m.spare) > 0 {
		p = &parts{table: m.pages[:0], spare: m.spare}
	}
	*m = Memory{}
	return p
}

// recyclePages zeroes every materialized page and moves it to the spare
// list, so the whole table reads as zero again.
func (m *Memory) recyclePages() {
	for i, pg := range m.pages {
		if pg != nil {
			*pg = Page{}
			m.spare = append(m.spare, pg)
			m.pages[i] = nil
		}
	}
}

// newPage returns a zero page, a spare one when there is one.
func (m *Memory) newPage() (pg *Page) {
	if len(m.spare) == 0 {
		return new(Page)
	}
	pg, m.spare = m.spare[0], m.spare[1:]
	return pg
}

// NewReserved is New with the page table grown (see Grow) for extra words
// to be mapped past the heap. Pages still materialize on their first
// nonzero store; only the table's pointer slots are reserved.
func NewReserved(heapWords int, extra Addr) *Memory {
	m := New(heapWords)
	m.Grow(extra)
	return m
}

// Grow sizes the page table so that mapping n more words past Size, by any
// sequence of MapStack/MapWords calls, reslices it instead of reallocating.
// machine.New calls it once for every worker's stack and local storage
// before it maps any of them.
func (m *Memory) Grow(n Addr) {
	if n < 0 {
		panic("mem: Grow: negative size")
	}
	if np := int((m.size + n + PageMask) >> PageShift); np > cap(m.pages) {
		m.pages = slices.Grow(m.pages, np-len(m.pages))
	}
}

// extend maps every address below size, growing the page table with nil
// (zero) pages. Within the table's capacity it reslices and allocates
// nothing. The entries it exposes are already nil: the table never shrinks,
// nothing writes past its length, Grow's new capacity is zeroed, and a
// released table is nil up to its capacity.
func (m *Memory) extend(size Addr) {
	m.size = size
	if np := int((size + PageMask) >> PageShift); np > len(m.pages) {
		m.pages = slices.Grow(m.pages, np-len(m.pages))[:np]
	}
}

// Size returns the total number of mapped words (including the guard).
func (m *Memory) Size() Addr { return m.size }

// Pages exposes the page table for the interpreter's batched fast path,
// which performs its own guard check per access. A nil entry reads as zero;
// callers store to one through Store, which materializes it in this same
// table. The next MapStack/MapWords or ImportState may lengthen the table,
// and reallocate it once it outgrows the capacity Grow set, so the slice
// header is stale after either; the fast path re-fetches it at every batch
// boundary.
func (m *Memory) Pages() []*Page { return m.pages }

// HeapLo returns the first heap address.
func (m *Memory) HeapLo() Addr { return m.heapLo }

// HeapHi returns the address just past the heap, where the first region
// MapStack/MapWords maps begins.
func (m *Memory) HeapHi() Addr { return m.heapHi }

// HeapUsed returns the number of heap words currently allocated.
func (m *Memory) HeapUsed() Addr { return m.heapNext - m.heapLo }

// Load reads one word. It panics with *Trap on an unmapped address; the
// machine recovers the trap at its run boundary. Reading a page that was
// never stored to returns 0 without materializing it.
func (m *Memory) Load(a Addr) int64 {
	if a < Guard || a >= m.size {
		panic(&Trap{Kind: "load", Addr: a})
	}
	if pg := m.pages[a>>PageShift]; pg != nil {
		return pg[a&PageMask]
	}
	return 0
}

// Store writes one word, trapping like Load on an unmapped address. The
// first nonzero store into a page materializes it, with a spare page when
// there is one.
func (m *Memory) Store(a Addr, v int64) {
	if a < Guard || a >= m.size {
		panic(&Trap{Kind: "store", Addr: a})
	}
	pg := m.pages[a>>PageShift]
	if pg == nil {
		if v == 0 {
			return
		}
		pg = m.newPage()
		m.pages[a>>PageShift] = pg
	}
	pg[a&PageMask] = v
}

// LoadF and StoreF move float64 values through raw word bits.
func (m *Memory) LoadF(a Addr) float64 { return math.Float64frombits(uint64(m.Load(a))) }

// StoreF stores a float64 as raw bits at a.
func (m *Memory) StoreF(a Addr, v float64) { m.Store(a, int64(math.Float64bits(v))) }

// Alloc bump-allocates n words from the shared heap and returns the base
// address. Callers serialize access (the discrete-event scheduler runs one
// instruction at a time, so simulated allocation is already atomic; host-side
// setup runs before any worker starts).
func (m *Memory) Alloc(n Addr) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("mem: Alloc(%d): negative size", n)
	}
	if m.heapNext+n > m.heapHi {
		return 0, fmt.Errorf("mem: heap exhausted: want %d words, %d free", n, m.heapHi-m.heapNext)
	}
	a := m.heapNext
	m.heapNext += n
	return a, nil
}

// MapStack appends a new stack region of n words and returns it. Regions are
// mapped after the current end of memory, so each worker's stack occupies a
// disjoint address range — the property the epilogue locality test relies on.
// Mapping only extends the page table; no word is touched.
func (m *Memory) MapStack(n Addr) Region {
	if n <= 0 {
		panic("mem: MapStack: non-positive size")
	}
	lo := m.size
	m.extend(lo + n)
	return Region{Lo: lo, Hi: lo + n}
}

// MapWords appends a raw region of n words (used for worker-local storage).
func (m *Memory) MapWords(n Addr) Region { return m.MapStack(n) }

// Region is a half-open address interval [Lo, Hi).
type Region struct {
	Lo, Hi Addr
}

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Lo && a < r.Hi }

// Len returns the region length in words.
func (r Region) Len() Addr { return r.Hi - r.Lo }

// WriteWords copies host values into simulated memory starting at base.
func (m *Memory) WriteWords(base Addr, vs []int64) {
	for i, v := range vs {
		m.Store(base+Addr(i), v)
	}
}

// ReadWords copies n simulated words starting at base into a host slice.
func (m *Memory) ReadWords(base Addr, n Addr) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Load(base + Addr(i))
	}
	return out
}

// WriteFloats copies host float64s into simulated memory starting at base.
func (m *Memory) WriteFloats(base Addr, vs []float64) {
	for i, v := range vs {
		m.StoreF(base+Addr(i), v)
	}
}

// ReadFloats copies n simulated float words starting at base into a host slice.
func (m *Memory) ReadFloats(base Addr, n Addr) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.LoadF(base + Addr(i))
	}
	return out
}
