package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

// mustOutJSON flattens a JobOutput for byte comparison.
func mustOutJSON(t *testing.T, out *JobOutput) []byte {
	t.Helper()
	if out == nil {
		t.Fatal("nil output")
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refOutput runs the request undisturbed on the calling goroutine.
func refOutput(t *testing.T, req JobRequest) []byte {
	t.Helper()
	out, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return mustOutJSON(t, out)
}

// captureContinuation yields a run at a fixed pick boundary and returns the
// encoded continuation.
func captureContinuation(t *testing.T, req JobRequest, pick int64) []byte {
	t.Helper()
	_, err := ExecuteOpts(context.Background(), req,
		ExecOpts{Checkpoint: &sched.Checkpoint{YieldAtPick: pick}})
	var susp *SuspendedError
	if !errors.As(err, &susp) {
		t.Fatalf("err = %v, want *SuspendedError", err)
	}
	if susp.Key != req.CacheKey() || len(susp.Enc) == 0 {
		t.Fatalf("suspended error carries key %q, %d bytes", susp.Key, len(susp.Enc))
	}
	return susp.Enc
}

// TestCheckpointResumeAcrossRestart is the crash-recovery contract: a
// server writing periodic checkpoints to a durable store dies mid-job; a
// fresh server over the same store resumes the job from its last
// checkpoint — not from scratch — and finishes byte-identical to an
// undisturbed run.
func TestCheckpointResumeAcrossRestart(t *testing.T) {
	store, err := snapshot.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{QueueBound: 8, HostProcs: 2, CacheEntries: -1,
		Checkpoints: store, CheckpointCycles: 500_000}
	req := JobRequest{App: "fib", Full: true, Workers: 4, Seed: 7, NoCache: true}
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := norm.CacheKey()

	s1 := New(cfg)
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a checkpoint in the durable store", func() bool {
		if _, err := store.Get(key); err != nil {
			return false
		}
		return true
	})
	// "Crash": abort the run. Cancellation never deletes the checkpoint,
	// exactly as a real crash would leave it behind.
	if _, err := s1.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j1)
	s1.Drain()
	if _, err := store.Get(key); err != nil {
		t.Fatalf("checkpoint did not survive the crash: %v", err)
	}

	s2 := New(cfg)
	defer s2.Drain()
	j2, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j2)
	if st := jobState(s2, j2); st != StateDone {
		t.Fatalf("state = %s (%s), want done", st, jobErr(s2, j2))
	}
	if got := s2.met.Counter("jobs_resumed"); got != 1 {
		t.Fatalf("jobs_resumed = %d, want 1 (the job must resume, not recompute)", got)
	}
	if got := mustOutJSON(t, j2.Output()); !bytes.Equal(got, refOutput(t, req)) {
		t.Fatal("resumed output differs from an undisturbed run")
	}
	// Success retires the checkpoint.
	if _, err := store.Get(key); !errors.Is(err, snapshot.ErrNotFound) {
		t.Fatalf("checkpoint not deleted after completion: %v", err)
	}
}

// TestStaleFormatCheckpoint: an artifact written under a different snapshot
// format version must never be resumed. The explicit-resume path fails
// typed; the stored-checkpoint path discards the stale artifact, counts
// it, and recomputes from scratch.
func TestStaleFormatCheckpoint(t *testing.T) {
	req := JobRequest{App: "fib", Workers: 2, Seed: 3, NoCache: true}
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	enc := captureContinuation(t, norm, 40)
	stale := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(stale[6:], snapshot.FormatVersion+1)

	// Hard path: an explicitly offered stale continuation is a typed error.
	_, err = ExecuteOpts(context.Background(), norm, ExecOpts{Resume: stale})
	var ve *snapshot.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *snapshot.VersionError", err)
	}

	// Key-mismatch path: a valid continuation for a different tuple is
	// rejected typed too.
	other := JobRequest{App: "fib", Workers: 2, Seed: 4, NoCache: true}
	otherNorm, err := other.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(context.Background(), otherNorm, ExecOpts{Resume: enc}); !errors.Is(err, ErrSnapshotKey) {
		t.Fatalf("err = %v, want ErrSnapshotKey", err)
	}

	// Best-effort path: a stale checkpoint found in the store is skipped
	// and deleted; the job recomputes and still completes correctly.
	store := snapshot.NewMemStore()
	key := norm.CacheKey()
	if err := store.Put(key, stale); err != nil {
		t.Fatal(err)
	}
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: -1, Checkpoints: store})
	defer s.Drain()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j)
	if st := jobState(s, j); st != StateDone {
		t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
	}
	if got := s.met.Counter("checkpoints_stale_format"); got != 1 {
		t.Fatalf("checkpoints_stale_format = %d, want 1", got)
	}
	if got := s.met.Counter("jobs_resumed"); got != 0 {
		t.Fatal("job must not count as resumed after discarding a stale checkpoint")
	}
	if _, err := store.Get(key); !errors.Is(err, snapshot.ErrNotFound) {
		t.Fatalf("stale checkpoint not deleted: %v", err)
	}
	if got := mustOutJSON(t, j.Output()); !bytes.Equal(got, refOutput(t, req)) {
		t.Fatal("output after stale-checkpoint recovery differs from reference")
	}
}

// TestStealHandshake walks the full steal protocol on one server: victim
// suspends at a pick boundary, thief adopts the continuation and runs it
// to completion, the claim accepts exactly one completion, and the bytes
// match an undisturbed run.
func TestStealHandshake(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16, StealTTL: time.Minute})
	defer s.Drain()

	// Nothing running: nothing to steal.
	if _, _, _, err := s.StealOne(context.Background()); !errors.Is(err, ErrNoStealable) {
		t.Fatalf("err = %v, want ErrNoStealable", err)
	}

	req := JobRequest{App: "fib", Full: true, Workers: 4, Seed: 9, NoCache: true}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim running", func() bool { return jobState(s, j) == StateRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	victim, claim, enc, err := s.StealOne(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if victim != j || claim == "" || len(enc) == 0 {
		t.Fatalf("grant = (%v, %q, %d bytes)", victim == j, claim, len(enc))
	}
	if st := jobState(s, j); st != StateStolen {
		t.Fatalf("victim state = %s, want stolen", st)
	}

	// Thief side (same process stands in for a remote node).
	tj, err := s.SubmitContinuation(req, "steal-trace", enc)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, tj)
	if st := jobState(s, tj); st != StateDone {
		t.Fatalf("thief job state = %s (%s), want done", st, jobErr(s, tj))
	}
	if got := s.met.Counter("jobs_resumed"); got != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", got)
	}

	out := tj.Output()
	if err := s.CompleteStolen(j.ID, claim, out); err != nil {
		t.Fatal(err)
	}
	if st := jobState(s, j); st != StateDone {
		t.Fatalf("victim state after completion = %s, want done", st)
	}
	// At-most-once: the claim is spent.
	if err := s.CompleteStolen(j.ID, claim, out); !errors.Is(err, ErrBadClaim) {
		t.Fatalf("second completion err = %v, want ErrBadClaim", err)
	}
	if err := s.CompleteStolen("j-999", claim, out); !errors.Is(err, ErrNoJob) {
		t.Fatalf("unknown-job completion err = %v, want ErrNoJob", err)
	}
	if got := mustOutJSON(t, j.Output()); !bytes.Equal(got, refOutput(t, req)) {
		t.Fatal("stolen-run output differs from an undisturbed run")
	}
	if s.met.Counter("steals_out") != 1 || s.met.Counter("steals_in") != 1 ||
		s.met.Counter("steals_completed") != 1 {
		t.Fatalf("steal counters out/in/completed = %d/%d/%d, want 1/1/1",
			s.met.Counter("steals_out"), s.met.Counter("steals_in"),
			s.met.Counter("steals_completed"))
	}
}

// TestStealAbandonedGrantRequeues: a thief whose deadline fires in the
// same instant the victim yields must never strand the job. The select in
// StealOne can take the expired context even though suspendJob already
// parked the job as stolen — with no claim minted, no reclaim timer would
// ever requeue it. Sweep the deadline across the yield latency so some
// iterations win the grant, some expire early, and some collide with the
// yield; every one must still complete, byte-identical.
func TestStealAbandonedGrantRequeues(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: -1, StealTTL: time.Minute})
	defer s.Drain()
	req := JobRequest{App: "fib", Full: true, Workers: 4, Seed: 11, NoCache: true}
	ref := refOutput(t, req)

	for i := 0; i < 12; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "victim running", func() bool { return jobState(s, j) == StateRunning })
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(i)*300*time.Microsecond)
		victim, claim, enc, serr := s.StealOne(ctx)
		cancel()
		if serr == nil {
			// The steal won the race: play the thief and complete it.
			tj, err := s.SubmitContinuation(req, "abandon-trace", enc)
			if err != nil {
				t.Fatal(err)
			}
			awaitDone(t, tj)
			if st := jobState(s, tj); st != StateDone {
				t.Fatalf("iter %d: thief job state = %s (%s)", i, st, jobErr(s, tj))
			}
			if err := s.CompleteStolen(victim.ID, claim, tj.Output()); err != nil {
				t.Fatalf("iter %d: CompleteStolen: %v", i, err)
			}
		}
		// The contract under test: whatever the steal attempt's fate, the
		// job terminates. Before the fix, a deadline/yield collision left
		// it parked in "stolen" forever and this wait never returned.
		awaitDone(t, j)
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("iter %d: job state = %s (%s), want done", i, st, jobErr(s, j))
		}
		if got := mustOutJSON(t, j.Output()); !bytes.Equal(got, ref) {
			t.Fatalf("iter %d: output differs from an undisturbed run", i)
		}
	}
}

// TestStealDuringCacheProbe: a job is stealable from the moment it is marked
// running, including while its executor probes the result cache. The cache
// is held locked so the job sits in that window; a thief polling then must
// get a claim, not ErrNoStealable. When the probe misses, the run yields to
// the thief at its first pick boundary; the thief vanishes and the job
// finishes locally from its continuation. When the probe hits, the job
// finishes from the cache and the waiting thief is told there is nothing to
// steal.
func TestStealDuringCacheProbe(t *testing.T) {
	req := JobRequest{App: "fib", Workers: 4, Seed: 10}
	ref := refOutput(t, req)
	for _, hit := range []bool{false, true} {
		t.Run(fmt.Sprintf("hit=%t", hit), func(t *testing.T) {
			s := New(Config{QueueBound: 8, HostProcs: 1, CacheEntries: 16,
				StealTTL: 150 * time.Millisecond})
			defer s.Drain()
			if hit {
				nr, err := req.Normalized()
				if err != nil {
					t.Fatal(err)
				}
				out, err := Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				s.cache.Put(nr.CacheKey(), out)
			}
			s.cache.mu.Lock()
			locked := true
			defer func() {
				if locked {
					s.cache.mu.Unlock()
				}
			}()
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "job running", func() bool { return jobState(s, j) == StateRunning })

			type stealResult struct {
				claim string
				err   error
			}
			resc := make(chan stealResult, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			go func() {
				_, claim, _, err := s.StealOne(ctx)
				resc <- stealResult{claim, err}
			}()
			waitFor(t, "thief waiting on the job", func() bool {
				select {
				case r := <-resc:
					t.Fatalf("steal during the cache probe returned early: %v", r.err)
				default:
				}
				s.mu.Lock()
				defer s.mu.Unlock()
				return j.stealCh != nil
			})
			s.cache.mu.Unlock()
			locked = false

			r := <-resc
			if hit {
				if !errors.Is(r.err, ErrNoStealable) {
					t.Fatalf("steal of a cache-served job: err = %v, want ErrNoStealable", r.err)
				}
			} else if r.err != nil || r.claim == "" {
				t.Fatalf("steal of an executing job: claim %q, err %v", r.claim, r.err)
			}
			awaitDone(t, j)
			if st := jobState(s, j); st != StateDone {
				t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
			}
			if got := mustOutJSON(t, j.Output()); !bytes.Equal(got, ref) {
				t.Fatal("output differs from an undisturbed run")
			}
			wantHits := int64(0)
			if hit {
				wantHits = 1
			}
			if got := s.met.Counter("cache_hits"); got != wantHits {
				t.Fatalf("cache_hits = %d, want %d", got, wantHits)
			}
		})
	}
}

// TestStealReclaim: a thief that never returns costs latency, not the job.
// When the claim expires the victim requeues the job from its own
// continuation and finishes it locally, byte-identical; the dead claim
// rejects late completions.
func TestStealReclaim(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16,
		StealTTL: 150 * time.Millisecond})
	defer s.Drain()

	req := JobRequest{App: "fib", Full: true, Workers: 4, Seed: 10, NoCache: true}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim running", func() bool { return jobState(s, j) == StateRunning })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, claim, _, err := s.StealOne(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The thief vanishes. The claim expires, the job requeues locally from
	// its continuation and completes.
	awaitDone(t, j)
	if st := jobState(s, j); st != StateDone {
		t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
	}
	if got := s.met.Counter("steals_reclaimed"); got != 1 {
		t.Fatalf("steals_reclaimed = %d, want 1", got)
	}
	if got := s.met.Counter("jobs_resumed"); got == 0 {
		t.Fatal("reclaimed job recomputed instead of resuming its continuation")
	}
	if err := s.CompleteStolen(j.ID, claim, j.Output()); !errors.Is(err, ErrBadClaim) {
		t.Fatalf("late completion err = %v, want ErrBadClaim", err)
	}
	if got := mustOutJSON(t, j.Output()); !bytes.Equal(got, refOutput(t, req)) {
		t.Fatal("reclaimed output differs from an undisturbed run")
	}
}

// TestSequentialJobYieldsAndAdopts: a seq job runs on the scheduler like
// any other, so it yields at a pick boundary, and the continuation adopted
// through ExecOpts.Resume finishes with the same JobOutput bytes as an
// undisturbed run.
func TestSequentialJobYieldsAndAdopts(t *testing.T) {
	req, err := JobRequest{App: "fib", Mode: "seq", Seed: 3,
		Metrics: true, Profile: true, Trace: true}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := refOutput(t, req)
	for _, pick := range []int64{2, 4} {
		enc := captureContinuation(t, req, pick)
		out, err := ExecuteOpts(context.Background(), req, ExecOpts{Resume: enc})
		if err != nil {
			t.Fatalf("pick %d: adopt: %v", pick, err)
		}
		if got := mustOutJSON(t, out); !bytes.Equal(got, want) {
			t.Fatalf("pick %d: adopted output differs from an undisturbed run", pick)
		}
	}
}
