package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1024)
	m.Store(Guard, 42)
	if got := m.Load(Guard); got != 42 {
		t.Fatalf("Load = %d", got)
	}
	m.StoreF(Guard+1, 3.25)
	if got := m.LoadF(Guard + 1); got != 3.25 {
		t.Fatalf("LoadF = %g", got)
	}
}

func TestGuardTraps(t *testing.T) {
	m := New(64)
	for _, a := range []Addr{0, 1, Guard - 1, m.Size(), m.Size() + 100, -1} {
		func() {
			defer func() {
				if _, ok := recover().(*Trap); !ok {
					t.Errorf("access at %d did not trap", a)
				}
			}()
			m.Load(a)
		}()
	}
}

func TestTrapError(t *testing.T) {
	tr := &Trap{Kind: "store", Addr: 7}
	if tr.Error() == "" {
		t.Fatal("empty trap message")
	}
}

func TestAlloc(t *testing.T) {
	m := New(100)
	a, err := m.Alloc(40)
	if err != nil || a != Guard {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, err := m.Alloc(60)
	if err != nil || b != Guard+40 {
		t.Fatalf("second alloc = %d, %v", b, err)
	}
	if _, err := m.Alloc(1); err == nil {
		t.Fatal("overcommitted heap did not error")
	}
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative alloc did not error")
	}
	if m.HeapUsed() != 100 {
		t.Fatalf("HeapUsed = %d", m.HeapUsed())
	}
}

func TestMapStackDisjoint(t *testing.T) {
	m := New(16)
	r1 := m.MapStack(100)
	r2 := m.MapStack(50)
	if r1.Hi != r2.Lo {
		t.Fatalf("stacks not adjacent: %v %v", r1, r2)
	}
	if r1.Contains(r2.Lo) || r2.Contains(r1.Hi-1) {
		t.Fatal("regions overlap")
	}
	if r1.Len() != 100 || r2.Len() != 50 {
		t.Fatal("wrong region lengths")
	}
	m.Store(r1.Hi-1, 7)
	m.Store(r2.Lo, 9)
	if m.Load(r1.Hi-1) != 7 || m.Load(r2.Lo) != 9 {
		t.Fatal("stack words not independent")
	}
}

func TestBulkReadWrite(t *testing.T) {
	m := New(256)
	base, _ := m.Alloc(8)
	in := []int64{1, -2, 3, -4}
	m.WriteWords(base, in)
	out := m.ReadWords(base, 4)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d = %d", i, out[i])
		}
	}
	fs := []float64{0.5, -1.25, 1e300}
	m.WriteFloats(base+4, fs)
	got := m.ReadFloats(base+4, 3)
	for i := range fs {
		if got[i] != fs[i] {
			t.Fatalf("float %d = %g", i, got[i])
		}
	}
}

// TestFloatBitsProperty: float round-trips are exact for all finite values.
func TestFloatBitsProperty(t *testing.T) {
	m := New(64)
	f := func(v float64) bool {
		m.StoreF(Guard, v)
		got := m.LoadF(Guard)
		return got == v || (got != got && v != v) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPagesMaterializeOnNonzeroStore checks the lazy page table: mapping
// and loading touch no page, a zero store into an untouched page leaves it
// unmaterialized, and the first nonzero store materializes exactly its own
// page.
func TestPagesMaterializeOnNonzeroStore(t *testing.T) {
	m := New(PageWords)
	r := m.MapStack(4 * PageWords)
	materialized := func() int {
		n := 0
		for _, pg := range m.Pages() {
			if pg != nil {
				n++
			}
		}
		return n
	}
	if got := testing.AllocsPerRun(10, func() { _ = m.Load(r.Lo + 3) }); got != 0 {
		t.Fatalf("Load of an untouched page allocated %v times", got)
	}
	m.Store(r.Lo+5, 0)
	if n := materialized(); n != 0 {
		t.Fatalf("%d pages materialized by mapping, loads and a zero store", n)
	}
	m.Store(r.Hi-1, -9)
	if n := materialized(); n != 1 || m.Pages()[(r.Hi-1)>>PageShift] == nil {
		t.Fatalf("a nonzero store materialized %d pages", n)
	}
	if got := m.Load(r.Hi - 1); got != -9 {
		t.Fatalf("Load = %d, want -9", got)
	}
	if got := m.Load(r.Hi - 2); got != 0 {
		t.Fatalf("neighbor of a stored word = %d, want 0", got)
	}
}

// TestStateRoundTrip checks an exported image carries exactly the nonzero
// pages and installs onto a freshly built memory with its contents, size
// and heap pointer intact.
func TestStateRoundTrip(t *testing.T) {
	build := func() *Memory {
		m := New(2 * PageWords)
		m.MapStack(3 * PageWords)
		return m
	}
	src := build()
	base, _ := src.Alloc(10)
	src.Store(base, 1)
	a2 := src.Size() - 1
	src.Store(a2, 2)
	src.MapStack(PageWords) // mapped after construction, as segmented stacks do
	a3 := src.Size() - 1
	src.Store(a3, 3)
	st := src.ExportState()
	if len(st.Index) != 3 || len(st.Words) != 3*PageWords {
		t.Fatalf("image holds pages %v (%d words), want 3 pages", st.Index, len(st.Words))
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("Validate of an exported image: %v", err)
	}
	dst := build()
	if err := dst.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if dst.Size() != src.Size() || dst.HeapUsed() != src.HeapUsed() {
		t.Fatalf("size/heap = %d/%d, want %d/%d", dst.Size(), dst.HeapUsed(), src.Size(), src.HeapUsed())
	}
	for _, a := range []Addr{base, a2, a3} {
		if dst.Load(a) != src.Load(a) {
			t.Fatalf("word %d = %d, want %d", a, dst.Load(a), src.Load(a))
		}
	}
	if _, ok := func() (v int64, ok bool) {
		defer func() { ok = recover() != nil }()
		return dst.Load(dst.Size()), false
	}(); !ok {
		t.Fatal("load past the imported size did not trap")
	}
	// Importing an image smaller than the current mapping is refused.
	if err := build().ImportState(New(PageWords).ExportState()); err == nil {
		t.Fatal("a smaller image was accepted")
	}
}

// TestGrowPresizesMapping checks that after Grow(n) or NewReserved, mapping
// up to n more words reslices the page table without allocating, and that
// the regions still read as zero.
func TestGrowPresizesMapping(t *testing.T) {
	const stack, wl, runs = 4*PageWords + 3, 8, 4
	m := New(2 * PageWords)
	// AllocsPerRun calls its function once more than runs, to warm up.
	m.Grow((runs + 1) * (stack + wl))
	table := &m.Pages()[:1][0]
	allocs := testing.AllocsPerRun(runs, func() {
		m.MapStack(stack)
		m.MapWords(wl)
	})
	if allocs != 0 {
		t.Fatalf("mapping within the presized table allocated %v times", allocs)
	}
	if got := &m.Pages()[:1][0]; got != table {
		t.Fatal("mapping within the presized table moved it")
	}
	if got := m.Load(m.Size() - 1); got != 0 {
		t.Fatalf("last mapped word = %d, want 0", got)
	}
	// NewReserved presizes the same way.
	r := NewReserved(2*PageWords, stack)
	if allocs := testing.AllocsPerRun(1, func() { r.MapStack(stack / 2) }); allocs != 0 {
		t.Fatalf("mapping within NewReserved's reservation allocated %v times", allocs)
	}
	// Past the presized capacity the table still grows.
	seg := m.MapStack(stack)
	m.Store(seg.Hi-1, 5)
	if m.Load(seg.Hi-1) != 5 {
		t.Fatal("mapping past the presized table lost a store")
	}
}

// TestImportStateInPlace checks that ImportState reuses the page table
// built at construction: pages the importing side's setup materialized but
// the image omits read zero afterwards, the table is not reallocated when
// the image maps nothing new, and an image with extra segments still
// extends it.
func TestImportStateInPlace(t *testing.T) {
	build := func() *Memory {
		m := New(2 * PageWords)
		m.Grow(3 * PageWords)
		m.MapStack(3 * PageWords)
		return m
	}
	src := build()
	base, _ := src.Alloc(10)
	src.Store(base, 1)
	top := src.Size() - 1
	src.Store(top, 2)
	st := src.ExportState()

	dst := build()
	// Setup on the importing side touches pages the image leaves out (and
	// one it carries): they must come out of the import as the image says.
	stale := []Addr{Guard + PageWords + 3, top - PageWords, top - 2*PageWords}
	for _, a := range stale {
		dst.Store(a, -7)
	}
	dst.Store(base, 99)
	table := &dst.Pages()[:1][0]
	if err := dst.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if got := &dst.Pages()[:1][0]; got != table {
		t.Fatal("ImportState reallocated the page table")
	}
	for _, a := range stale {
		if got := dst.Load(a); got != 0 {
			t.Fatalf("word %d = %d after import, want 0 (page not in the image)", a, got)
		}
	}
	if dst.Load(base) != 1 || dst.Load(top) != 2 {
		t.Fatalf("imported words = %d, %d, want 1, 2", dst.Load(base), dst.Load(top))
	}
	if !reflect.DeepEqual(dst.ExportState(), st) {
		t.Fatal("re-export differs from the imported image")
	}

	// An image that mapped a segment after construction extends the table.
	src.MapStack(PageWords)
	end := src.Size() - 1
	src.Store(end, 3)
	grown := build()
	if err := grown.ImportState(src.ExportState()); err != nil {
		t.Fatal(err)
	}
	if grown.Size() != src.Size() || grown.Load(end) != 3 {
		t.Fatalf("size %d, word %d = %d; want %d, 3", grown.Size(), end, grown.Load(end), src.Size())
	}
	grown.Store(end-1, 4) // the extension is mapped, not just sized
}
