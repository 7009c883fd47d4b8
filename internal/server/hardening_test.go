package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// --- breaker unit tests (fake clock via the now hook) ---

func fakeClock() (*time.Time, func() time.Time) {
	cur := time.Unix(1000, 0)
	return &cur, func() time.Time { return cur }
}

func TestBreakerLifecycle(t *testing.T) {
	cur, now := fakeClock()
	b := newBreaker(10*time.Second, 3, 2*time.Second)
	b.now = now

	if st := b.State(); st != "closed" {
		t.Fatalf("initial state %q", st)
	}
	b.Record(true)
	b.Record(true)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("below threshold must admit")
	}
	b.Record(true) // third host failure: open
	if st := b.State(); st != "open" {
		t.Fatalf("state after threshold = %q, want open", st)
	}
	ok, wait := b.Allow()
	if ok || wait != 2*time.Second {
		t.Fatalf("open Allow = (%t, %v), want (false, 2s)", ok, wait)
	}
	*cur = cur.Add(1 * time.Second)
	if ok, wait = b.Allow(); ok || wait != 1*time.Second {
		t.Fatalf("mid-cooldown Allow = (%t, %v), want (false, 1s)", ok, wait)
	}

	// Cooldown elapses: exactly one probe is admitted.
	*cur = cur.Add(1500 * time.Millisecond)
	if ok, _ = b.Allow(); !ok {
		t.Fatal("post-cooldown probe must be admitted")
	}
	if st := b.State(); st != "half-open" {
		t.Fatalf("state during probe = %q, want half-open", st)
	}
	if ok, _ = b.Allow(); ok {
		t.Fatal("second submission during the probe must be shed")
	}

	// The probe succeeds: closed, failures forgotten.
	b.Record(false)
	if st := b.State(); st != "closed" {
		t.Fatalf("state after good probe = %q, want closed", st)
	}
	b.Record(true)
	b.Record(true)
	if st := b.State(); st != "closed" {
		t.Fatalf("old failures leaked through a close: %q", st)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	cur, now := fakeClock()
	b := newBreaker(10*time.Second, 1, 2*time.Second)
	b.now = now

	b.Record(true)
	if st := b.State(); st != "open" {
		t.Fatalf("state %q, want open", st)
	}
	*cur = cur.Add(3 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe must be admitted")
	}
	b.Record(true) // the probe itself failed: full cooldown again
	if st := b.State(); st != "open" {
		t.Fatalf("state after failed probe = %q, want open", st)
	}
	if ok, wait := b.Allow(); ok || wait != 2*time.Second {
		t.Fatalf("reopened Allow = (%t, %v), want (false, 2s)", ok, wait)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	cur, now := fakeClock()
	b := newBreaker(10*time.Second, 3, 2*time.Second)
	b.now = now

	b.Record(true)
	b.Record(true)
	*cur = cur.Add(11 * time.Second) // both age out of the window
	b.Record(true)
	if st := b.State(); st != "closed" {
		t.Fatalf("stale failures counted toward the threshold: %q", st)
	}
	b.Record(true)
	b.Record(true)
	if st := b.State(); st != "open" {
		t.Fatalf("three failures within the window must open: %q", st)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(time.Second, -1, time.Second)
	for i := 0; i < 100; i++ {
		b.Record(true)
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("disabled breaker must always admit")
	}
	if st := b.State(); st != "disabled" {
		t.Fatalf("state %q, want disabled", st)
	}
	var nilB *breaker
	if ok, _ := nilB.Allow(); !ok {
		t.Fatal("nil breaker must admit")
	}
	nilB.Record(true) // must not panic
}

// --- watchdog ---

// waitTerminal blocks until the job is terminal, failing the test on a
// hang (the hardening contract: never a stuck job).
func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never reached a terminal state", j.ID)
	}
}

func TestWatchdogTripIsTypedTimeout(t *testing.T) {
	s := New(Config{
		HostProcs:        1,
		Watchdog:         10 * time.Millisecond,
		BreakerThreshold: -1,
	})
	defer s.Drain()

	// Paper-scale fib runs for seconds; the 10ms watchdog must trip first.
	j, err := s.Submit(JobRequest{App: "fib", Full: true, Workers: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j)
	if st := jobState(s, j); st != StateTimeout {
		t.Fatalf("state %q, want %q", st, StateTimeout)
	}
	if f := jobFailure(s, j); f != FailTimeout {
		t.Fatalf("failure %q, want %q", f, FailTimeout)
	}
	if n := s.Stats().WatchdogTrips; n < 1 {
		t.Fatalf("watchdog_trips = %d, want >= 1", n)
	}

	// The slot was released, not wedged: it serves the next job.
	j2, err := s.Submit(JobRequest{App: "fib", Full: true, Workers: 8, Seed: 2})
	if err != nil {
		t.Fatalf("Submit after trip: %v", err)
	}
	waitTerminal(t, j2)
	if st := jobState(s, j2); st != StateTimeout {
		t.Fatalf("second job state %q, want %q", st, StateTimeout)
	}
}

// --- breaker integration: watchdog trips open it, a good probe closes it ---

func TestBreakerShedsAfterHostFailuresAndRecovers(t *testing.T) {
	s := New(Config{
		HostProcs:        1,
		Watchdog:         10 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerWindow:    time.Hour,
		BreakerCooldown:  time.Hour,
	})
	defer s.Drain()

	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobRequest{App: "fib", Full: true, Workers: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitTerminal(t, j)
	}
	if st := s.breaker.State(); st != "open" {
		t.Fatalf("breaker %q after two watchdog trips, want open", st)
	}

	_, err := s.Submit(JobRequest{App: "fib"})
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("Submit while open: %v, want *ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", shed.RetryAfter)
	}
	if n := s.Stats().Shed; n < 1 {
		t.Fatalf("jobs_shed = %d, want >= 1", n)
	}

	// Advance the breaker's clock past the cooldown and prime the cache so
	// the half-open probe finishes instantly (a cache hit never touches
	// the watchdog) and succeeds.
	probe := JobRequest{App: "fib"}
	if _, err := (&probe).normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	s.cache.Put(probe.CacheKey(), &JobOutput{Result: &core.Result{RV: 1}})
	s.breaker.now = func() time.Time { return time.Now().Add(2 * time.Hour) }

	j, err := s.Submit(JobRequest{App: "fib"})
	if err != nil {
		t.Fatalf("probe Submit: %v", err)
	}
	waitTerminal(t, j)
	if st := jobState(s, j); st != StateDone {
		t.Fatalf("probe state %q, want done", st)
	}
	if st := s.breaker.State(); st != "closed" {
		t.Fatalf("breaker %q after good probe, want closed", st)
	}
	if _, err := s.Submit(JobRequest{App: "fib", Seed: 9, Full: true, Workers: 8}); err != nil {
		t.Fatalf("Submit after close: %v", err)
	}
}

// --- serving chaos differential ---

// TestServeChaosDifferential is the serving half of the chaos contract:
// under a plan that panics executors and injects latency spikes, every job
// either completes with artifacts byte-identical to a fault-free server's,
// or fails with a typed "fault" class — and a bounded number of retries
// always lands the result, because serving faults re-roll per attempt.
func TestServeChaosDifferential(t *testing.T) {
	tuples := []JobRequest{
		{App: "fib", Workers: 4, Seed: 1},
		{App: "fib", Workers: 4, Seed: 2},
		{App: "fib", Workers: 4, Seed: 3, FaultPlan: "steal-storm"},
		{App: "knapsack", Workers: 4, Seed: 1},
	}

	clean := New(Config{HostProcs: 2, BreakerThreshold: -1})
	want := make([]*JobOutput, len(tuples))
	for i, req := range tuples {
		j, err := clean.Submit(req)
		if err != nil {
			t.Fatalf("clean Submit %d: %v", i, err)
		}
		waitTerminal(t, j)
		if st := jobState(clean, j); st != StateDone {
			t.Fatalf("clean job %d state %q (%s)", i, st, jobErr(clean, j))
		}
		want[i] = jobOut(clean, j)
	}

	plan := func() *fault.Plan {
		return &fault.Plan{
			Name: "test-serve", Seed: 11,
			ExecPanicPct: 40, ExecDelayPct: 30, ExecDelayMs: 5,
		}
	}
	// The executor rolls its panic on (CacheKey, attempt), and the key
	// embeds the snapshot format version, so which tuples panic shifts
	// with the format. Roll the plan's own injector the same way to add
	// one tuple whose first attempt is sure to panic: the restart path is
	// always covered.
	roll := fault.New(plan())
	for seed := uint64(4); ; seed++ {
		if seed > 200 {
			t.Fatal("no fib seed in 4..200 panics on its first attempt")
		}
		req := JobRequest{App: "fib", Workers: 4, Seed: seed}
		norm, err := req.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if roll.ExecPanic(norm.CacheKey(), 1) {
			tuples = append(tuples, req)
			j, err := clean.Submit(req)
			if err != nil {
				t.Fatalf("clean Submit: %v", err)
			}
			waitTerminal(t, j)
			if st := jobState(clean, j); st != StateDone {
				t.Fatalf("clean job seed %d state %q (%s)", seed, st, jobErr(clean, j))
			}
			want = append(want, jobOut(clean, j))
			break
		}
	}
	clean.Drain()

	chaos := New(Config{
		HostProcs: 2,
		// No cache: every attempt must actually execute under faults.
		CacheEntries:     -1,
		BreakerThreshold: -1,
		Fault:            fault.New(plan()),
	})
	defer chaos.Drain()

	failed := int64(0)
	for i, req := range tuples {
		var got *JobOutput
		for attempt := 1; attempt <= 12; attempt++ {
			j, err := chaos.Submit(req)
			if err != nil {
				t.Fatalf("chaos Submit %d: %v", i, err)
			}
			waitTerminal(t, j)
			switch st := jobState(chaos, j); st {
			case StateDone:
				got = jobOut(chaos, j)
			case StateFailed:
				// Injected executor panics must classify as "fault",
				// never leak as an untyped failure.
				if f := jobFailure(chaos, j); f != FailFault {
					t.Fatalf("tuple %d attempt %d: failure %q (%s), want %q",
						i, attempt, f, jobErr(chaos, j), FailFault)
				}
				failed++
			default:
				t.Fatalf("tuple %d attempt %d: state %q", i, attempt, st)
			}
			if got != nil {
				break
			}
		}
		if got == nil {
			t.Fatalf("tuple %d never completed in 12 attempts (panic pct is 40; p(all fail) ~ 1e-5)", i)
		}
		if err := sameOutput(want[i], got); err != nil {
			t.Fatalf("tuple %d: chaos output diverged from clean run: %v", i, err)
		}
	}
	if failed == 0 {
		t.Fatal("the tuple whose first attempt the plan panics never failed — injection not reaching the executor")
	}
	if got := chaos.Stats().ExecutorRestarts; got != failed {
		t.Fatalf("executor restarts = %d, want one per failed attempt (%d)", got, failed)
	}
}

// sameOutput compares every deterministic artifact byte for byte.
func sameOutput(a, b *JobOutput) error {
	if a.Result.RV != b.Result.RV || a.Result.Time != b.Result.Time ||
		a.Result.WorkCycles != b.Result.WorkCycles || a.Result.Instrs != b.Result.Instrs ||
		a.Result.Steals != b.Result.Steals {
		return fmt.Errorf("result differs: %+v vs %+v", a.Result, b.Result)
	}
	if string(a.Metrics) != string(b.Metrics) {
		return fmt.Errorf("metrics snapshot differs")
	}
	if a.Profile != b.Profile {
		return fmt.Errorf("profile differs")
	}
	if string(a.Trace) != string(b.Trace) {
		return fmt.Errorf("trace differs")
	}
	return nil
}

// --- drain under serving faults ---

func TestDrainCompletesUnderServingFaults(t *testing.T) {
	s := New(Config{
		HostProcs:        2,
		CacheEntries:     -1,
		BreakerThreshold: -1,
		Fault: fault.New(&fault.Plan{
			Name: "test-drain", Seed: 3,
			ExecPanicPct: 30, ExecDelayPct: 30, ExecDelayMs: 5,
		}),
	})
	var jobs []*Job
	for i := 0; i < 12; i++ {
		j, err := s.Submit(JobRequest{App: "fib", Workers: 2, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain hung under serving faults")
	}
	for i, j := range jobs {
		st := jobState(s, j)
		if !terminal(st) {
			t.Fatalf("job %d left non-terminal after drain: %q", i, st)
		}
		if st == StateFailed && jobFailure(s, j) == "" {
			t.Fatalf("job %d failed untyped: %s", i, jobErr(s, j))
		}
	}
}

// jobOut reads a job's output under the server mutex.
func jobOut(s *Server, j *Job) *JobOutput {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.out
}
