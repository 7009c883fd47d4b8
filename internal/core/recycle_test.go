package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
)

// quickJob runs a quick-scale app as a served job runs (collector attached,
// output captured) and returns a digest of its Result, output, metrics,
// profile and Chrome trace.
func quickJob(t *testing.T, app string, mode core.Mode, workers int, seed uint64) string {
	t.Helper()
	w, err := figures.Workload(app, figures.Quick, apps.ST)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	var out bytes.Buffer
	res, err := core.Run(w, core.Config{Mode: mode, Workers: workers, Seed: seed, Obs: col, Out: &out})
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%s\n", *res, out.Bytes())
	col.WriteReport(h)
	if err := col.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// freshJobs is the job list TestRecycledMemoryMatchesFreshProcess compares.
func freshJobs(t *testing.T) string {
	var digests []string
	for _, app := range []string{"fib", "cilksort", "heat"} {
		digests = append(digests, quickJob(t, app, core.StackThreads, 4, 3))
	}
	return fmt.Sprint(digests)
}

// TestFreshProcessJobs prints the digests of freshJobs. Run alone in a
// child process, it gives TestRecycledMemoryMatchesFreshProcess what the
// jobs produce on memory nothing has used before.
func TestFreshProcessJobs(t *testing.T) {
	fmt.Printf("fresh-digests=%s\n", freshJobs(t))
}

// TestRecycledMemoryMatchesFreshProcess runs a full-scale job that dirties
// many pages, then quick jobs on the memory it released: their Results,
// output and obs artifacts must equal those of the same jobs in a fresh
// process.
func TestRecycledMemoryMatchesFreshProcess(t *testing.T) {
	// Garbage collection may empty the free list; hold it off so the
	// quick jobs do run on the released parts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, err := figures.Workload("heat", figures.Full, apps.ST)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(w, core.Config{Mode: core.StackThreads, Workers: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	got := freshJobs(t)

	cmd := exec.Command(os.Args[0], "-test.run=^TestFreshProcessJobs$", "-test.count=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(?m)^fresh-digests=(.*)$`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("child process printed no digests:\n%s", out)
	}
	if want := string(m[1]); got != want {
		t.Fatalf("jobs on recycled memory: %s\nin a fresh process: %s", got, want)
	}
}

// TestRunReusesReleasedMemory pins that core.Run hands its memory back: a
// second run of a quick job builds on the page table and pages the first
// released, so it allocates less than half of what that table alone takes.
// A run may miss the free list (the goroutine can change processors
// between runs), so the least of a few runs is what must pass.
func TestRunReusesReleasedMemory(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, err := figures.Workload("cilksort", figures.Quick, apps.ST)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	cfg := core.Config{Mode: core.StackThreads, Workers: workers, Seed: 1}
	if _, err := core.Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	words := mem.Guard + int64(w.HeapWords) + workers*(machine.DefaultStackWords+8)
	table := uint64(8 * ((words + mem.PageMask) >> mem.PageShift))
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Run(w, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("page table %d B; a second core.Run allocated %d B", table, least)
	if least >= table/2 {
		t.Fatalf("a second core.Run allocated %d B, want under %d B (half its %d B page table)", least, table/2, table)
	}
}

// TestConcurrentRunsMatchSequential runs different apps on several
// goroutines at once, sharing the programs' decode images and the memory
// free list: every Result must equal the same run made alone. Run it under
// -race.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	type job struct {
		app  string
		mode core.Mode
	}
	jobs := []job{{"fib", core.StackThreads}, {"cilksort", core.Cilk}, {"heat", core.StackThreads}, {"knapsack", core.Sequential}}
	run := func(j job) (*core.Result, error) {
		w, err := figures.Workload(j.app, figures.Quick, apps.ST)
		if err != nil {
			return nil, err
		}
		return core.Run(w, core.Config{Mode: j.mode, Workers: 4, Seed: 5})
	}
	want := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = run(j); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got, err := run(j)
				if err != nil {
					t.Errorf("%s: %v", j.app, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s run %d alongside others: %+v, alone: %+v", j.app, k, got, want[i])
				}
			}
		}(i, j)
	}
	wg.Wait()
}
