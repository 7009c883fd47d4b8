package machine

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// testMem maps size words (guard included) of zeroed shared memory.
func testMem(size int64) *mem.Memory { return mem.New(int(size - mem.Guard)) }

// testView opens a chain view over shared memory, as BeginChain does.
func testView(shared *mem.Memory) *pageView {
	src := shared.Pages()
	return &pageView{
		size:  shared.Size(),
		src:   src,
		pages: make([]*mem.Page, len(src)),
	}
}

// TestPageViewPrivatizeOnTouch checks the copy-on-first-touch discipline:
// loads see the shared value, stores stay private, and a page is copied at
// most once.
func TestPageViewPrivatizeOnTouch(t *testing.T) {
	shared := testMem(3 * mem.PageWords)
	a := int64(mem.Guard + 10)
	b := a + mem.PageWords // next page
	shared.Store(a, 111)
	shared.Store(b, 222)
	shared.Store(b+1, 223)
	before := shared.ExportState()
	v := testView(shared)

	if got := v.load(a); got != 111 {
		t.Fatalf("load(%d) = %d, want 111", a, got)
	}
	if len(v.touched) != 1 || v.touched[0] != a>>mem.PageShift {
		t.Fatalf("touched = %v after one load", v.touched)
	}
	v.store(a, 999)
	if got := shared.Load(a); got != 111 {
		t.Fatalf("store leaked to shared memory: word %d = %d", a, got)
	}
	if got := v.load(a); got != 999 {
		t.Fatalf("load after store = %d, want 999", got)
	}
	if len(v.touched) != 1 {
		t.Fatalf("same-page store privatized again: touched = %v", v.touched)
	}
	v.store(b, 333)
	if len(v.touched) != 2 || v.touched[1] != b>>mem.PageShift {
		t.Fatalf("touched = %v after cross-page store", v.touched)
	}
	// The rest of a privatized page carries the shared content.
	if got := v.load(b + 1); got != shared.Load(b+1) {
		t.Fatalf("neighbor word = %d, want %d", got, shared.Load(b+1))
	}
	if !reflect.DeepEqual(shared.ExportState(), before) {
		t.Fatal("view stores changed the shared memory image")
	}
}

// TestPageViewZeroPage checks a page shared memory never materialized
// privatizes as zeros, and that neither loading nor storing it through the
// view materializes it in the shared page table.
func TestPageViewZeroPage(t *testing.T) {
	shared := testMem(2 * mem.PageWords)
	a := int64(mem.PageWords + 3)
	v := testView(shared)
	if got := v.load(a); got != 0 {
		t.Fatalf("load of an untouched page = %d, want 0", got)
	}
	v.store(a+1, 9)
	if got := v.load(a + 1); got != 9 {
		t.Fatalf("load after store = %d, want 9", got)
	}
	if len(v.touched) != 1 || v.touched[0] != 1 {
		t.Fatalf("touched = %v", v.touched)
	}
	if shared.Pages()[1] != nil {
		t.Fatal("the view materialized a shared page")
	}
}

// TestPageViewPartialLastPage checks that the last word of a final, partial
// page loads and stores through the view, and that addresses at or past
// the memory's size trap.
func TestPageViewPartialLastPage(t *testing.T) {
	size := int64(2*mem.PageWords + 17)
	shared := testMem(size)
	last := size - 1
	shared.Store(last, 7)
	v := testView(shared)
	if got := v.load(last); got != 7 {
		t.Fatalf("load(last) = %d, want 7", got)
	}
	v.store(last, 8)
	if got := v.load(last); got != 8 {
		t.Fatalf("load after store = %d, want 8", got)
	}
	// The privatized page has room past size; the view must not use it.
	defer func() {
		if trap, ok := recover().(*mem.Trap); !ok || trap.Addr != size {
			t.Fatalf("store(size) recovered %v, want a *mem.Trap at %d", trap, size)
		}
	}()
	v.store(size, 1)
}

// TestPageViewTraps checks out-of-view accesses raise the same *mem.Trap
// the oracle's bounds check would.
func TestPageViewTraps(t *testing.T) {
	shared := testMem(mem.PageWords)
	v := testView(shared)
	for _, tc := range []struct {
		kind string
		addr int64
		op   func(a int64)
	}{
		{"load", shared.Size(), func(a int64) { v.load(a) }},
		{"load", mem.Guard - 1, func(a int64) { v.load(a) }},
		{"store", shared.Size() + 5, func(a int64) { v.store(a, 1) }},
	} {
		func() {
			defer func() {
				r := recover()
				trap, ok := r.(*mem.Trap)
				if !ok {
					t.Fatalf("%s(%d): recovered %v, want *mem.Trap", tc.kind, tc.addr, r)
				}
				if trap.Kind != tc.kind || trap.Addr != tc.addr {
					t.Fatalf("%s(%d): trap %+v", tc.kind, tc.addr, trap)
				}
			}()
			tc.op(tc.addr)
		}()
	}
}

// TestSpecStateViewRouting checks the worker-level memLoad/memStore route
// through the view when one is installed: stores append to the write log in
// program order and loads observe them.
func TestSpecStateViewRouting(t *testing.T) {
	shared := testMem(2 * mem.PageWords)
	a := int64(mem.Guard + 4)
	shared.Store(a, 5)
	v := testView(shared)
	w := &Worker{spec: &specState{view: v}}

	if got := w.memLoad(a); got != 5 {
		t.Fatalf("memLoad = %d, want 5", got)
	}
	w.memStore(a, 6)
	w.memStore(a+1, 7)
	if got := w.memLoad(a); got != 6 {
		t.Fatalf("memLoad after memStore = %d, want 6", got)
	}
	wl := w.spec.wlog
	if len(wl) != 2 || wl[0] != (memWrite{a, 6}) || wl[1] != (memWrite{a + 1, 7}) {
		t.Fatalf("wlog = %+v", wl)
	}
	if shared.Load(a) != 5 {
		t.Fatalf("store leaked to shared memory")
	}
}

// TestSpecStatePrevThunks checks a chain's later segments see thunks
// consumed by earlier segments as gone.
func TestSpecStatePrevThunks(t *testing.T) {
	s := &specState{prevThunks: []int64{-10}, thunks: []int64{-20}}
	if !s.consumed(-10) || !s.consumed(-20) {
		t.Fatal("consumed thunks not visible")
	}
	if s.consumed(-30) {
		t.Fatal("unconsumed thunk reported consumed")
	}
}
