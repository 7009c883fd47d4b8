package hostpar

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestProcs(t *testing.T) {
	if got := Procs(3); got != 3 {
		t.Fatalf("Procs(3) = %d, want 3", got)
	}
	if got := Procs(1); got != 1 {
		t.Fatalf("Procs(1) = %d, want 1", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Procs(0); got != want {
		t.Fatalf("Procs(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := Procs(-5); got != want {
		t.Fatalf("Procs(-5) = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestMapZeroItems(t *testing.T) {
	called := false
	if err := Map(0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatalf("Map(0, ...) = %v, want nil", err)
	}
	if called {
		t.Fatal("f called for an empty index range")
	}
}

// TestMapAllIndicesOnce: every index runs exactly once, at any parallelism.
func TestMapAllIndicesOnce(t *testing.T) {
	for _, procs := range []int{0, 1, 2, 7} {
		const n = 100
		var counts [n]atomic.Int64
		if err := Map(n, procs, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("procs=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

// TestMapLowestIndexError: when several indices fail, the error reported is
// the lowest index's — deterministic regardless of host scheduling.
func TestMapLowestIndexError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		err := Map(20, procs, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at 7" {
			t.Fatalf("procs=%d: err = %v, want boom at 7", procs, err)
		}
	}
}

// TestMapPanicBecomesError: a panicking index is reported as that index's
// error instead of crashing the process.
func TestMapPanicBecomesError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		err := Map(10, procs, func(i int) error {
			if i == 5 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "index 5 panicked: kaboom") {
			t.Fatalf("procs=%d: err = %v, want index-5 panic report", procs, err)
		}
	}
}

// TestMapInlineWhenSerial: with procs <= 1 (or a single item) the calls run
// on the calling goroutine in index order — no goroutines, no reordering.
func TestMapInlineWhenSerial(t *testing.T) {
	cases := []struct{ n, procs int }{{8, 1}, {8, 0 /* resolved > 1 only if GOMAXPROCS > 1 */}, {1, 8}}
	for _, tc := range cases {
		if tc.procs == 0 && runtime.GOMAXPROCS(0) > 1 && tc.n > 1 {
			continue // genuinely parallel; ordering not guaranteed
		}
		var order []int // appended without synchronization: must be inline
		if err := Map(tc.n, tc.procs, func(i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(order) != tc.n {
			t.Fatalf("n=%d procs=%d: ran %d calls", tc.n, tc.procs, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d procs=%d: order[%d] = %d, want %d (inline path must preserve index order)",
					tc.n, tc.procs, i, got, i)
			}
		}
	}
}

var errSentinel = errors.New("sentinel")

// TestMapErrorStopsNothing: an early error does not prevent later indices
// from running (results are collected by index; the first error wins).
func TestMapErrorStopsNothing(t *testing.T) {
	var ran atomic.Int64
	err := Map(10, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errSentinel
		}
		return nil
	})
	if !errors.Is(err, errSentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d of 10 indices", ran.Load())
	}
}
