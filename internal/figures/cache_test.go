package figures

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
)

// memoryVerified are the benchmarks whose Verify reads the output from
// memory over the heap layout bound at construction (cilksort, fft, heat,
// lu, and the three matmul variants).
var memoryVerified = []string{"cilksort", "fft", "heat", "lu", "notempmul", "spacemul", "blockedmul"}

// TestSharedWorkloadConcurrentRuns: one cached workload serves concurrent
// runs and resumptions. Every goroutine gets the same *apps.Workload, and
// every run of it, straight through core.Run or captured at a pick
// boundary and finished by core.Resume, returns the same Result. Run under
// -race, this also shows that runs share nothing mutable.
func TestSharedWorkloadConcurrentRuns(t *testing.T) {
	const perApp = 3
	cfg := core.Config{Mode: core.StackThreads, Workers: 2, Seed: 1}
	var wg sync.WaitGroup
	errs := make(chan error, len(memoryVerified)*perApp)
	for _, name := range memoryVerified {
		first, err := Workload(name, Quick, apps.ST)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(first, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for g := 0; g < perApp; g++ {
			wg.Add(1)
			go func(name string, g int) {
				defer wg.Done()
				errs <- func() error {
					w, err := Workload(name, Quick, apps.ST)
					if err != nil {
						return err
					}
					if w != first {
						return fmt.Errorf("%s: Workload returned a second pointer", name)
					}
					got, err := core.Run(w, cfg)
					if err != nil {
						return fmt.Errorf("%s: run: %w", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s: concurrent run differs from the first", name)
					}
					capCfg := cfg
					capCfg.Checkpoint = &sched.Checkpoint{YieldAtPick: 1 + int64(g)*want.Picks/perApp}
					_, err = core.Run(w, capCfg)
					var ye *sched.YieldError
					if !errors.As(err, &ye) {
						return fmt.Errorf("%s: want a yield at pick %d, got %v", name, capCfg.Checkpoint.YieldAtPick, err)
					}
					got, err = core.Resume(w, cfg, ye.Boundary)
					if err != nil {
						return fmt.Errorf("%s: resume: %w", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s: resumed run differs from the first", name)
					}
					return nil
				}()
			}(name, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestWorkloadCacheKeys: a known name is built once per (scale, variant),
// scales and variants outside the two of each share the entry their
// builder would build, and an unknown name never enters the cache.
func TestWorkloadCacheKeys(t *testing.T) {
	a, err := Workload("fib", Quick, apps.Seq)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Workload("fib", Quick, apps.Seq)
	c, _ := Workload("fib", Quick, apps.ST)
	d, _ := Workload("fib", Scale(7), apps.Variant(9))
	if a != b || a == c || c != d {
		t.Fatalf("fib: seq %p/%p, st %p, (7,9) %p: want one pointer per (scale, variant)", a, b, c, d)
	}
	if _, err := Workload("nope", Quick, apps.ST); err == nil {
		t.Fatal("unknown name accepted")
	}
	workloadsMu.Lock()
	defer workloadsMu.Unlock()
	for k := range workloads {
		if k.name == "nope" {
			t.Fatal("unknown name entered the cache")
		}
		if k.sc != Quick && k.sc != Full || k.v != apps.Seq && k.v != apps.ST {
			t.Fatalf("cache key %+v outside 2 scales × 2 variants", k)
		}
	}
}
