package mem

import (
	"sync"
	"testing"
)

// dirty stores a nonzero word into every page of m past the guard and
// returns how many pages that materialized.
func dirty(m *Memory) int {
	for a := Guard; a < m.Size(); a += PageWords {
		m.Store(a, a)
	}
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// requireZero fails unless every mapped address of m, and every slot of its
// table up to the capacity, reads zero.
func requireZero(t *testing.T, m *Memory, skip map[Addr]bool) {
	t.Helper()
	for a := Guard; a < m.Size(); a++ {
		if v := m.Load(a); v != 0 && !skip[a] {
			t.Fatalf("unwritten word %d = %d after recycling, want 0", a, v)
		}
	}
	for p, pg := range m.pages[len(m.pages):cap(m.pages)] {
		if pg != nil {
			t.Fatalf("table slot %d past the mapping holds a page", len(m.pages)+p)
		}
	}
}

func requireTrap(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(*Trap); !ok {
			t.Fatalf("%s on a released memory did not trap", what)
		}
	}()
	f()
}

// TestReleaseRoundTrip builds memories from a released memory's parts, with
// the recycled table both larger and smaller than the new memory needs:
// every address the new memory has not written reads zero, through New,
// Store and ImportState alike, written words read back, and recycled pages
// back new stores before any page is allocated.
func TestReleaseRoundTrip(t *testing.T) {
	big := New(4 * PageWords)
	big.MapStack(64 * PageWords)
	dirtied := dirty(big)
	bigCap := cap(big.pages)
	p := big.release()
	requireTrap(t, "Load", func() { big.Load(Guard) })
	requireTrap(t, "Store", func() { big.Store(Guard, 1) })
	if len(p.spare) != dirtied || cap(p.table) != bigCap {
		t.Fatalf("released %d pages and a %d-slot table, want %d and %d", len(p.spare), cap(p.table), dirtied, bigCap)
	}

	// A recycled table larger than needed.
	small := newFrom(PageWords, p)
	r := small.MapStack(3 * PageWords)
	if cap(small.pages) != bigCap {
		t.Fatal("newFrom did not take the released table")
	}
	requireZero(t, small, nil)
	written := map[Addr]bool{r.Lo + 1: true, r.Hi - 1: true}
	for a := range written {
		small.Store(a, 7)
	}
	requireZero(t, small, written)
	if len(small.spare) != dirtied-2 {
		t.Fatalf("%d spare pages after two first stores, want %d", len(small.spare), dirtied-2)
	}

	// ImportState onto recycled parts: what the image holds reads back,
	// everything else (the two pages just written included) reads zero.
	src := New(PageWords)
	src.MapStack(3 * PageWords)
	written = map[Addr]bool{Guard + 5: true, src.Size() - PageWords: true}
	for a := range written {
		src.Store(a, -a)
	}
	if err := small.ImportState(src.ExportState()); err != nil {
		t.Fatal(err)
	}
	requireZero(t, small, written)
	for a := range written {
		if v := small.Load(a); v != -a {
			t.Fatalf("imported word %d = %d, want %d", a, v, -a)
		}
	}

	// A recycled table smaller than needed grows, and still reads zero.
	p = small.release()
	huge := newFrom(4*PageWords, p)
	huge.MapStack(256 * PageWords)
	if cap(huge.pages) <= bigCap {
		t.Fatalf("a %d-slot table holds a %d-word mapping", cap(huge.pages), huge.Size())
	}
	requireZero(t, huge, nil)
	if n := dirty(huge); n <= dirtied {
		t.Fatalf("dirtied %d pages, want more than the %d spares", n, dirtied)
	}
	if len(huge.spare) != 0 {
		t.Fatalf("%d spare pages left after more first stores than spares", len(huge.spare))
	}
}

// TestReleaseConcurrent builds, dirties and releases memories from several
// goroutines at once through the shared free list; every memory must read
// zero wherever it has not written. Run it under -race.
func TestReleaseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m := New(PageWords * (1 + (g+i)%3))
				r := m.MapStack(PageWords * Addr(2+(g*i)%5))
				for a := Guard; a < m.Size(); a++ {
					if v := m.Load(a); v != 0 {
						t.Errorf("goroutine %d run %d: fresh word %d = %d", g, i, a, v)
						return
					}
				}
				m.Store(r.Lo, int64(g+1))
				m.Store(r.Hi-1, int64(i+1))
				if m.Load(r.Lo) != int64(g+1) || m.Load(r.Hi-1) != int64(i+1) {
					t.Errorf("goroutine %d run %d: lost a store", g, i)
				}
				m.Release()
			}
		}(g)
	}
	wg.Wait()
}
