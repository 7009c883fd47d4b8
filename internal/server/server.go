// Package server is the job-execution service: it accepts StackThreads/
// Cilk simulation jobs over an HTTP+JSON API, multiplexes them across host
// cores on a fixed set of executor slots, and serves back core.Result plus the
// deterministic observability artifacts (metrics snapshot, phase report,
// Chrome trace).
//
// The serving stack exploits the property the scheduler guarantees: a run
// is a pure function of its canonical tuple (app, scale, mode,
// workers, cpu, seed, quantum, policy, budget), so results are perfectly
// cacheable and a cache hit is indistinguishable — byte for byte — from a
// fresh execution. Around that sit the classic serving shapes:
//
//   - admission control: a bounded queue of waiting jobs; when it is full,
//     submissions are rejected immediately (HTTP 429 + Retry-After) rather
//     than queued without bound.
//   - execution: a fixed set of executor slots, one job per slot. An idle
//     slot pulls the next job off the queue, priority-then-FIFO; nothing
//     is ever handed to a busy slot.
//   - cancellation and deadlines: every job carries a context; DELETE or a
//     timeout cancels it cooperatively through core.Config.Ctx, and a
//     per-job MaxWorkCycles virtual budget bounds runaway tuples.
//   - graceful drain: Drain stops admission, runs every already-accepted
//     job to a terminal state, then stops the slots. No accepted request
//     is ever dropped.
//   - failure containment: a panic while serving a job fails exactly that
//     job and its slot moves on to the next, a
//     watchdog bounds each job's wall clock, and a sliding-window breaker
//     sheds load when the host itself is failing. Every failure carries a
//     typed taxonomy class: fault, invariant, panic, timeout, or shed.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hostpar"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// Admission errors.
var (
	// ErrDraining rejects submissions while the server drains (HTTP 503).
	ErrDraining = errors.New("server: draining, not admitting new jobs")
	// ErrQueueFull rejects submissions when the admission queue is at its
	// bound (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrNoJob reports an unknown job id (HTTP 404).
	ErrNoJob = errors.New("server: no such job")
	// ErrWatchdog fails a job whose wall-clock execution exceeded the
	// server's watchdog bound (terminal state timeout, failure "timeout").
	ErrWatchdog = errors.New("server: watchdog: job exceeded its wall-clock bound")
)

// ShedError rejects a submission while the breaker sheds load (HTTP 503 +
// Retry-After, failure "shed").
type ShedError struct {
	// RetryAfter is how long the client should back off before retrying.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: shedding load (breaker open, retry in %s)", e.RetryAfter.Round(time.Millisecond))
}

// keptTerminal is how many finished jobs stay in the job table for
// GET /jobs/{id}. A client reads a job's result right after it finishes
// (or waits on the POST), so this covers any realistic polling lag
// while bounding what the table pins beyond the result cache's LRU.
const keptTerminal = 256

// Failure taxonomy classes (JobView.Failure and error responses).
const (
	FailFault     = "fault"     // injected fault (typed *fault.Error)
	FailInvariant = "invariant" // §3.2 or conservation violation (typed *invariant.Violation)
	FailPanic     = "panic"     // executor panic (host bug; contained to the job)
	FailTimeout   = "timeout"   // deadline or watchdog
	FailShed      = "shed"      // rejected by the load-shedding breaker
)

// Config tunes a Server. The zero value picks the defaults noted per field.
type Config struct {
	// QueueBound caps the admission queue (default 64).
	QueueBound int
	// HostProcs is the number of executor slots — how many jobs run
	// concurrently across host cores (default hostpar.Procs(0), i.e.
	// GOMAXPROCS).
	HostProcs int
	// CacheEntries bounds the result cache's LRU (default 256; negative
	// disables caching).
	CacheEntries int
	// DefaultTimeout applies to jobs that set no timeout (0 = none).
	DefaultTimeout time.Duration
	// MaxWorkCycles, when positive, is a server-wide ceiling: jobs with no
	// budget (or a larger one) are clamped to it.
	MaxWorkCycles int64
	// Fault, when non-nil, injects serving-side faults (executor panics,
	// latency spikes) from the injector's plan. Virtual faults inside a
	// job come from the request's FaultPlan instead — this injector only
	// perturbs the host path, never a run's bytes.
	Fault *fault.Injector
	// Watchdog bounds each job's wall-clock execution; a job that exceeds
	// it fails typed "timeout" and its executor moves on (0 = off).
	Watchdog time.Duration
	// BreakerThreshold opens the load-shedding breaker after this many
	// host failures (panics, watchdog trips) within BreakerWindow
	// (default 8; negative disables shedding).
	BreakerThreshold int
	// BreakerWindow is the sliding failure window (default 10s).
	BreakerWindow time.Duration
	// BreakerCooldown is how long the breaker sheds before admitting a
	// half-open probe (default 2s).
	BreakerCooldown time.Duration
	// HostSpans, when non-nil, receives every serving-path wall-clock span
	// (enqueue wait, cache probe, execution, drain) in a bounded ring, for
	// the two-clock trace export. Per-job spans are always kept on the job
	// regardless; the recorder is the server-wide view.
	HostSpans *obs.HostRecorder
	// Log, when non-nil, receives structured serving-path events (job
	// lifecycle, drain, breaker trips), each tagged with the job's
	// trace_id. Nil disables logging.
	Log *slog.Logger
	// Checkpoints, when non-nil, persists running jobs' continuations every
	// CheckpointCycles of virtual work, keyed by versioned canonical tuple.
	// A job whose tuple has a stored checkpoint resumes from it instead of
	// recomputing — across restarts too, and across nodes when the store's
	// directory is shared.
	Checkpoints snapshot.Store
	// CheckpointCycles is the capture cadence (default 2,000,000).
	CheckpointCycles int64
	// StealTTL bounds how long a stolen job may stay out for adoption; past
	// it the claim expires and the job is requeued locally from its own
	// continuation (default 10s).
	StealTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	c.HostProcs = hostpar.Procs(c.HostProcs)
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.StealTTL <= 0 {
		c.StealTTL = 10 * time.Second
	}
	return c
}

// Server is the job-execution service. Create with New, serve its
// Handler(), and call Drain on shutdown.
type Server struct {
	cfg     Config
	queue   *admitQueue
	slots   sync.WaitGroup // the executor slots; Done when the queue closes
	cache   *resultCache
	met     *serverMetrics
	breaker *breaker
	host    *obs.HostRecorder // nil-safe: nil when Config.HostSpans is nil
	cont    *sched.Contention // server-wide host-side execution counters
	log     *slog.Logger      // nil disables

	mux *http.ServeMux // the HTTP API, built once in New

	mu        sync.Mutex
	drainCond *sync.Cond
	// jobs holds every live job plus the keptTerminal most recent terminal
	// ones; retired rings the terminal ids in finishing order so the
	// oldest is dropped when a newer one finishes.
	jobs     map[string]*Job
	retired  [keptTerminal]string
	nretired int
	nextID   uint64
	pending  int // accepted but not yet terminal (queued + running)
	running  int
	draining bool
	// attempts counts executions per key since the key's last success;
	// the serving-fault rolls read it, so a retry after a failure re-rolls.
	attempts map[string]int
}

// New creates and starts a server: its executor slots are live and
// pulling from the admission queue.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    newAdmitQueue(cfg.QueueBound),
		cache:    newResultCache(cfg.CacheEntries),
		met:      newServerMetrics(),
		breaker:  newBreaker(cfg.BreakerWindow, cfg.BreakerThreshold, cfg.BreakerCooldown),
		host:     cfg.HostSpans,
		cont:     &sched.Contention{},
		log:      cfg.Log,
		jobs:     make(map[string]*Job),
		attempts: make(map[string]int),
	}
	s.drainCond = sync.NewCond(&s.mu)
	s.mux = s.newMux()
	s.met.Set("host_procs", int64(cfg.HostProcs))
	s.slots.Add(cfg.HostProcs)
	for i := 0; i < cfg.HostProcs; i++ {
		go s.slot()
	}
	return s
}

// slot is one executor slot: it takes the next job only when it is idle,
// so a waiting job stays in the queue — counted against the bound and
// ordered by priority — until a slot is free to run it.
func (s *Server) slot() {
	defer s.slots.Done()
	for j := s.queue.Pop(); j != nil; j = s.queue.Pop() {
		s.met.Set("queue_depth", int64(s.queue.Len()))
		s.runJob(j)
	}
}

// Submit validates and admits a job. It returns ErrDraining once Drain has
// begun, ErrQueueFull when the admission queue is at its bound, and a
// *ShedError while the breaker sheds load.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	return s.submit(req, "", nil)
}

// submit validates a request and admits it under the trace-id rule; resume,
// when non-nil, is an encoded continuation the job adopts instead of
// starting fresh.
func (s *Server) submit(req JobRequest, traceID string, resume []byte) (*Job, error) {
	sp, err := (&req).normalize()
	if err != nil {
		return nil, err
	}
	return s.admit(req, sp, TraceID(traceID), resume)
}

// admit is the one admission path. req is normalized, sp is what
// normalize parsed, and traceID is well-formed.
func (s *Server) admit(req JobRequest, sp jobSpec, traceID string, resume []byte) (*Job, error) {
	if ok, retry := s.breaker.Allow(); !ok {
		s.met.Add("jobs_shed", 1)
		s.logEvent("job shed", "trace_id", traceID, "retry_after", retry.String())
		return nil, &ShedError{RetryAfter: retry}
	}
	if max := s.cfg.MaxWorkCycles; max > 0 && (req.MaxWorkCycles <= 0 || req.MaxWorkCycles > max) {
		req.MaxWorkCycles = max
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.met.Add("jobs_rejected_draining", 1)
		return nil, ErrDraining
	}
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("j-%d", s.nextID),
		Req:       req,
		spec:      sp,
		key:       req.CacheKey(),
		traceID:   traceID,
		state:     StateQueued,
		phase:     "queued",
		submitted: time.Now(),
		enc:       resume,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	if !s.queue.Push(j) {
		s.mu.Unlock()
		cancel()
		s.met.Add("jobs_rejected_queue_full", 1)
		s.logEvent("job rejected, queue full", "trace_id", traceID, "app", req.App)
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.pending++
	s.mu.Unlock()
	s.met.Add("jobs_accepted", 1)
	s.met.Set("queue_depth", int64(s.queue.Len()))
	s.logEvent("job accepted", "trace_id", traceID, "job", j.ID, "app", req.App, "key", j.key)
	return j, nil
}

// logEvent emits one structured log record; a nil logger disables logging.
func (s *Server) logEvent(msg string, args ...any) {
	if s.log != nil {
		s.log.Info(msg, args...)
	}
}

// span records one wall-clock serving span: always on the job (so /jobs/{id}
// and the two-clock export see it even after ring eviction), and mirrored
// into the server-wide recorder when one is configured.
func (s *Server) span(j *Job, name string, start, end time.Time, args ...obs.Arg) {
	sp := obs.HostSpan{
		TraceID: j.traceID,
		Job:     j.ID,
		Name:    name,
		Start:   start.UnixMicro(),
		Dur:     end.Sub(start).Microseconds(),
		Args:    args,
	}
	s.mu.Lock()
	j.hostSpans = append(j.hostSpans, sp)
	s.mu.Unlock()
	s.host.Record(sp)
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNoJob
	}
	return j, nil
}

// Cancel cancels a job: a queued job transitions to canceled immediately
// and leaves the admission queue; a running job's context is canceled and
// the scheduler aborts at its next pick. Terminal jobs are left untouched.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNoJob
	}
	switch j.state {
	case StateQueued, StateStolen:
		// Queued: leaves the queue, freeing its place under the bound (a
		// slot that popped it already skips it). Stolen: the claim dies
		// with the terminal transition, so a late thief completion is
		// rejected.
		s.queue.Remove(j)
		s.finishLocked(j, nil, context.Canceled, "")
	case StateRunning:
		j.cancel()
	}
	s.mu.Unlock()
	s.met.Set("queue_depth", int64(s.queue.Len()))
	return j, nil
}

// noteExec folds host-side execution events (checkpoint written, resumed
// from continuation, stale-format checkpoint dropped) into the job record
// and the metrics registry.
func (s *Server) noteExec(j *Job, event string) {
	switch event {
	case "resume":
		s.met.Add("jobs_resumed", 1)
		s.mu.Lock()
		j.resumed = true
		s.mu.Unlock()
		s.logEvent("job resumed from continuation", "trace_id", j.traceID, "job", j.ID)
	case "checkpoint":
		s.met.Add("checkpoints_written", 1)
		s.mu.Lock()
		j.ckpts++
		j.lastCkpt = time.Now()
		s.mu.Unlock()
	case "stale-format":
		s.met.Add("checkpoints_stale_format", 1)
		s.logEvent("stale-format checkpoint dropped", "trace_id", j.traceID, "job", j.ID)
	}
}

// runJob executes one popped job on the calling slot. A panic in the
// slot's own serving code is recovered here, and one recovered on the
// execution child is handed over below; both fail only this job
// (failPanic) and the slot goes back to the queue.
func (s *Server) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.failPanic(j, r)
		}
	}()
	s.mu.Lock()
	if j.state != StateQueued {
		// Canceled while waiting in the queue; nothing to run.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.phase = "cache-probe"
	j.started = time.Now()
	j.progress = &obs.Progress{}
	// The job gets a capture handle in the same critical section that
	// marks it running, so a thief never finds a running job it cannot
	// claim: the cluster layer yields it for stealing, and the checkpoint
	// store (if any) snapshots it periodically. A job then served from the
	// cache finishes normally; finishLocked wakes any thief waiting on it.
	cp := &sched.Checkpoint{}
	j.cp = cp
	s.running++
	s.met.Set("jobs_running", int64(s.running))
	s.mu.Unlock()
	s.met.Observe("queue_wait_us", j.started.Sub(j.submitted).Microseconds())
	s.span(j, "enqueue-wait", j.submitted, j.started)

	ctx := j.ctx
	timeout := time.Duration(j.Req.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	key := j.key
	cacheUse := "bypass"
	if !j.Req.NoCache {
		probe0 := time.Now()
		out, ok := s.cache.Get(key)
		s.span(j, "cache-probe", probe0, time.Now(), obs.Arg{K: "hit", V: b2i(ok)})
		if ok {
			s.met.Add("cache_hits", 1)
			s.finishJob(j, out, nil, "hit")
			return
		}
		s.met.Add("cache_misses", 1)
		cacheUse = "miss"
	} else {
		s.met.Add("cache_bypass", 1)
	}
	s.mu.Lock()
	j.phase = "execute"
	resume := j.enc
	j.enc = nil
	s.attempts[key]++
	attempt := s.attempts[key]
	s.mu.Unlock()

	// Execute on a child goroutine so the slot can abandon a wedged run
	// when the watchdog fires. The channel is buffered: a late result from
	// an abandoned child is parked there and dropped (the job is already
	// terminal; finishLocked ignores second transitions).
	type execResult struct {
		out *JobOutput
		err error
		pan any
	}
	resc := make(chan execResult, 1)
	t0 := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				resc <- execResult{pan: r}
			}
		}()
		if d := s.cfg.Fault.ExecDelay(key, attempt); d > 0 {
			// Injected latency spike: the executor sits on the job.
			s.met.Add("fault_exec_delays", 1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if s.cfg.Fault.ExecPanic(key, attempt) {
			panic(&fault.Error{Site: "exec-panic"})
		}
		out, err := execute(ctx, j.Req, j.spec, ExecOpts{
			Progress:         j.progress,
			Contention:       s.cont,
			Checkpoints:      s.cfg.Checkpoints,
			CheckpointCycles: s.cfg.CheckpointCycles,
			Checkpoint:       cp,
			Resume:           resume,
			TraceID:          j.traceID,
			Notify:           func(ev string) { s.noteExec(j, ev) },
		})
		resc <- execResult{out: out, err: err}
	}()

	var wdC <-chan time.Time
	if wd := s.cfg.Watchdog; wd > 0 {
		t := time.NewTimer(wd)
		defer t.Stop()
		wdC = t.C
	}
	select {
	case r := <-resc:
		s.met.Observe("job_run_host_us", time.Since(t0).Microseconds())
		s.span(j, "execute", t0, time.Now(),
			obs.Arg{K: "work_cycles", V: j.progress.WorkCycles.Load()},
			obs.Arg{K: "picks", V: j.progress.Picks.Load()})
		if r.pan != nil {
			s.failPanic(j, r.pan)
			return
		}
		var susp *SuspendedError
		if errors.As(r.err, &susp) {
			// The run yielded its continuation (cluster steal): the job is
			// not terminal — it goes out for adoption or requeues.
			s.suspendJob(j, susp)
			return
		}
		if r.err == nil && cacheUse == "miss" {
			if ev := s.cache.Put(key, r.out); ev > 0 {
				s.met.Add("cache_evictions", int64(ev))
			}
			s.met.Set("cache_entries", int64(s.cache.Len()))
		}
		s.finishJob(j, r.out, r.err, cacheUse)
	case <-wdC:
		// The job blew its wall-clock bound. Cancel its context so a
		// cooperative run unwinds, but do not wait for it: the slot is
		// released now and the child's late result is dropped.
		s.met.Add("watchdog_trips", 1)
		now := time.Now()
		s.span(j, "execute", t0, now, obs.Arg{K: "watchdog_trip", V: 1})
		s.host.Instant(j.traceID, j.ID, "watchdog-trip", now)
		s.logEvent("watchdog trip", "trace_id", j.traceID, "job", j.ID, "bound", s.cfg.Watchdog.String())
		j.cancel()
		s.finishJob(j, nil, ErrWatchdog, cacheUse)
	}
}

// b2i is the span-arg form of a bool.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// failPanic is where every panic met while serving a job ends: the job
// fails typed and executor_restarts counts the contained panic.
func (s *Server) failPanic(j *Job, r any) {
	s.met.Add("executor_restarts", 1)
	s.logEvent("executor panic, job failed", "trace_id", j.traceID, "job", j.ID)
	s.finishJob(j, nil, &panicError{v: r}, "")
}

// panicError wraps a value recovered from an executor panic. Unwrap
// exposes error panics (e.g. an injected *fault.Error) to errors.As, so
// the failure taxonomy can distinguish an injected fault from a genuine
// host bug.
type panicError struct{ v any }

func (p *panicError) Error() string { return fmt.Sprintf("server: executor panicked: %v", p.v) }

func (p *panicError) Unwrap() error {
	if err, ok := p.v.(error); ok {
		return err
	}
	return nil
}

// finishJob moves a job to its terminal state and wakes waiters.
func (s *Server) finishJob(j *Job, out *JobOutput, err error, cacheUse string) {
	s.mu.Lock()
	s.running--
	s.met.Set("jobs_running", int64(s.running))
	s.finishLocked(j, out, err, cacheUse)
	s.mu.Unlock()
}

// finishLocked is the terminal transition; the caller holds s.mu. The
// terminal state and the failure class are derived from err: nil → done;
// context.Canceled → canceled; deadline or watchdog → timeout ("timeout");
// a typed *fault.Error → failed ("fault"); a typed *invariant.Violation →
// failed ("invariant"); an executor panic → failed ("panic" — or "fault"
// when the panic value was an injected *fault.Error); anything else →
// failed. Host failures (panic, watchdog) also feed the breaker.
func (s *Server) finishLocked(j *Job, out *JobOutput, err error, cacheUse string) {
	if terminal(j.state) {
		return
	}
	hostFailure := false
	var fe *fault.Error
	var iv *invariant.Violation
	var pe *panicError
	switch {
	case err == nil:
		j.state = StateDone
		j.out = out
		// A success ends the key's fault-roll sequence, so the map holds
		// only keys with a live or failed job.
		delete(s.attempts, j.key)
		s.met.Add("jobs_completed", 1)
	case errors.Is(err, ErrWatchdog):
		j.state = StateTimeout
		j.failure = FailTimeout
		j.errMsg = err.Error()
		hostFailure = true
		s.met.Add("jobs_timeout", 1)
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = err.Error()
		s.met.Add("jobs_canceled", 1)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateTimeout
		j.failure = FailTimeout
		j.errMsg = err.Error()
		s.met.Add("jobs_timeout", 1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		switch {
		case errors.As(err, &fe):
			j.failure = FailFault
		case errors.As(err, &iv):
			j.failure = FailInvariant
		case errors.As(err, &pe):
			j.failure = FailPanic
			hostFailure = true
		}
		s.met.Add("jobs_failed", 1)
	}
	if err != nil {
		// Only host pathologies open the breaker; deterministic failures
		// (fault, invariant, budget) are correct service.
		s.breaker.Record(hostFailure)
	} else {
		s.breaker.Record(false)
	}
	j.cacheUse = cacheUse
	j.phase = "finished"
	j.finished = time.Now()
	// Retire the checkpoint/steal lifecycle: the claim dies with the job,
	// and a thief blocked in StealOne is woken to find the job gone.
	j.cp = nil
	j.claim = ""
	j.enc = nil
	if j.stealCh != nil {
		close(j.stealCh)
		j.stealCh = nil
	}
	s.pending--
	close(j.done)
	// The job stays findable until keptTerminal newer jobs have finished;
	// then it leaves the table, and its output with it.
	slot := &s.retired[s.nretired%keptTerminal]
	if *slot != "" {
		delete(s.jobs, *slot)
	}
	*slot = j.ID
	s.nretired++
	s.drainCond.Broadcast()
	s.logEvent("job finished", "trace_id", j.traceID, "job", j.ID,
		"state", j.state, "failure", j.failure, "cache", j.cacheUse,
		"run_us", j.finished.Sub(j.submitted).Microseconds())
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the serving loop down: stop admitting, run every
// accepted job (queued, running or stolen) to a terminal state, then stop
// the slots. It blocks until the drain is complete and is idempotent. The
// HTTP listener should be shut down after Drain so in-flight waiters get
// their responses.
func (s *Server) Drain() {
	t0 := time.Now()
	s.mu.Lock()
	first := !s.draining
	backlog := s.pending
	s.draining = true
	s.met.Set("draining", 1)
	for s.pending > 0 {
		s.drainCond.Wait()
	}
	s.mu.Unlock()
	// Admission has been refused under s.mu since draining was set, and
	// no job is pending, so nothing can enter the queue any more: closing
	// it ends each slot's loop once any canceled leftovers are popped.
	s.queue.Close()
	s.slots.Wait()
	if first {
		s.host.Span("", "", "drain", t0, time.Now(), obs.Arg{K: "backlog", V: int64(backlog)})
		s.logEvent("drained", "backlog", backlog, "drain_us", time.Since(t0).Microseconds())
	}
}

// Metrics exposes the server's metrics registry wrapper (counters, gauges
// and histograms; snapshot via MarshalJSON).
func (s *Server) Metrics() *serverMetrics { return s.met }

// HostSpans exposes the server-wide wall-clock span recorder (nil when the
// server was configured without one).
func (s *Server) HostSpans() *obs.HostRecorder { return s.host }

// syncObsMetrics folds the pull-style host counters — interpreter-tier
// residency and span-ring overwrites — into the metrics
// registry as gauges, so one scrape (JSON or Prometheus) sees them
// alongside the push-style serving counters.
// Called on each metrics/debug read; the sources are atomics, so this is a
// cheap point-in-time copy.
func (s *Server) syncObsMetrics() {
	cs := s.cont.Snapshot()
	s.met.Set("tier_batched_vcycles", cs.BatchedCycles)
	s.met.Set("tier_reference_vcycles", cs.ReferenceCycles)
	if s.host != nil {
		s.met.Set("host_spans_dropped", s.host.Overwritten())
	}
}

// DebugJobView is one live (non-terminal) job in the debug snapshot.
type DebugJobView struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id"`
	App      string `json:"app"`
	Key      string `json:"key"`
	State    string `json:"state"`
	Phase    string `json:"phase"`
	Priority int    `json:"priority,omitempty"`
	Cache    string `json:"cache,omitempty"`
	// AgeUs is host time since admission.
	AgeUs int64 `json:"age_us"`
	// WorkCycles and Picks are the run's live progress (virtual work cycles
	// burned, scheduler picks serviced); zero until execution starts.
	WorkCycles int64 `json:"work_cycles,omitempty"`
	Picks      int64 `json:"picks,omitempty"`
	// Resumed marks a run continued from a checkpoint or stolen
	// continuation; Checkpoints counts periodic captures written, and
	// CheckpointAgeUs is the host time since the last one (0 = never).
	Resumed         bool  `json:"resumed,omitempty"`
	Checkpoints     int64 `json:"checkpoints,omitempty"`
	CheckpointAgeUs int64 `json:"checkpoint_age_us,omitempty"`
}

// DebugStealView summarizes the node's cluster-steal activity.
type DebugStealView struct {
	// Out: continuations handed to thieves. In: continuations adopted from
	// victims. Completed: stolen jobs whose result a thief posted back.
	// Reclaimed: claims that expired and requeued locally. Rejected:
	// completions refused for a dead claim.
	Out       int64 `json:"out"`
	In        int64 `json:"in"`
	Completed int64 `json:"completed"`
	Reclaimed int64 `json:"reclaimed"`
	Rejected  int64 `json:"rejected"`
}

// DebugView is the live-introspection snapshot behind GET /debug/jobs:
// where every in-flight job is right now, plus the serving control state
// (queue, breaker, drain, contention). Everything here is host-side
// observability; nothing is deterministic.
type DebugView struct {
	Draining         bool                     `json:"draining"`
	QueueDepth       int                      `json:"queue_depth"`
	Running          int                      `json:"running"`
	Pending          int                      `json:"pending"`
	Breaker          string                   `json:"breaker"` // disabled | closed | open | half-open
	Contention       sched.ContentionSnapshot `json:"contention"`
	HostSpansDropped int64                    `json:"host_spans_dropped,omitempty"`
	Steals           DebugStealView           `json:"steals"`
	Jobs             []DebugJobView           `json:"jobs"`
}

// DebugSnapshot captures the live serving state: every non-terminal job with
// its current phase and progress, queue depth, breaker state, and the
// host-side execution counters.
func (s *Server) DebugSnapshot() DebugView {
	s.syncObsMetrics()
	now := time.Now()
	v := DebugView{
		Breaker:    s.breaker.State(),
		QueueDepth: s.queue.Len(),
		Contention: s.cont.Snapshot(),
		Steals: DebugStealView{
			Out:       s.met.Counter("steals_out"),
			In:        s.met.Counter("steals_in"),
			Completed: s.met.Counter("steals_completed"),
			Reclaimed: s.met.Counter("steals_reclaimed"),
			Rejected:  s.met.Counter("steals_rejected"),
		},
	}
	if s.host != nil {
		v.HostSpansDropped = s.host.Overwritten()
	}
	s.mu.Lock()
	v.Draining = s.draining
	v.Running = s.running
	v.Pending = s.pending
	for _, j := range s.jobs {
		if terminal(j.state) {
			continue
		}
		dj := DebugJobView{
			ID:       j.ID,
			TraceID:  j.traceID,
			App:      j.Req.App,
			Key:      j.key,
			State:    j.state,
			Phase:    j.phase,
			Priority: j.Req.Priority,
			Cache:    j.cacheUse,
			AgeUs:    now.Sub(j.submitted).Microseconds(),
		}
		if p := j.progress; p != nil {
			dj.WorkCycles = p.WorkCycles.Load()
			dj.Picks = p.Picks.Load()
		}
		dj.Resumed = j.resumed
		dj.Checkpoints = j.ckpts
		if !j.lastCkpt.IsZero() {
			dj.CheckpointAgeUs = now.Sub(j.lastCkpt).Microseconds()
		}
		v.Jobs = append(v.Jobs, dj)
	}
	s.mu.Unlock()
	// Admission order (ids are "j-<n>"; compare by length then bytes).
	sort.Slice(v.Jobs, func(a, b int) bool {
		x, y := v.Jobs[a].ID, v.Jobs[b].ID
		if len(x) != len(y) {
			return len(x) < len(y)
		}
		return x < y
	})
	return v
}

// Stats summarizes the lifetime counters (used by the drain banner).
// ExecutorRestarts (metric executor_restarts) counts panics contained to
// their job; the slot that met one keeps serving.
type Stats struct {
	Accepted, Completed, Failed, Canceled, Timeout int64
	CacheHits, CacheMisses                         int64
	RejectedQueueFull, RejectedDraining, Shed      int64
	ExecutorRestarts, WatchdogTrips                int64
}

// Stats reads the lifetime counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:          s.met.Counter("jobs_accepted"),
		Completed:         s.met.Counter("jobs_completed"),
		Failed:            s.met.Counter("jobs_failed"),
		Canceled:          s.met.Counter("jobs_canceled"),
		Timeout:           s.met.Counter("jobs_timeout"),
		CacheHits:         s.met.Counter("cache_hits"),
		CacheMisses:       s.met.Counter("cache_misses"),
		RejectedQueueFull: s.met.Counter("jobs_rejected_queue_full"),
		RejectedDraining:  s.met.Counter("jobs_rejected_draining"),
		Shed:              s.met.Counter("jobs_shed"),
		ExecutorRestarts:  s.met.Counter("executor_restarts"),
		WatchdogTrips:     s.met.Counter("watchdog_trips"),
	}
}
