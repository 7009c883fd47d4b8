package server

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Cluster work stealing, victim and thief sides. The protocol is the
// paper's steal handshake lifted to whole jobs: a thief asks a busy node
// for work; the victim suspends one running job at its next pick boundary
// (machine quiescent, capture byte-transparent) and hands out the encoded
// continuation under a fresh single-use claim; the thief resumes it
// locally and posts the finished output back against the claim. Adoption
// is at-most-once: the claim dies on first completion, on cancellation,
// and on expiry — an expired job requeues locally from its own
// continuation, so a vanished thief costs latency, never the job.

// Steal errors.
var (
	// ErrNoStealable reports that no running job can be suspended right now.
	ErrNoStealable = errors.New("server: no stealable job")
	// ErrBadClaim rejects a stolen completion whose claim is unknown,
	// expired, or already spent.
	ErrBadClaim = errors.New("server: unknown, expired or already-spent steal claim")
)

// Stealable counts the running jobs a thief could usefully claim: jobs
// whose continuation can be captured, minus the one this node should keep.
// With work queued behind the slots every running job is surplus, but when
// the queue is empty the last running job is not — stealing it would only
// migrate the work and idle this node, and with several idle peers polling
// each other a large continuation ping-pongs around the cluster forever,
// paying a full encode/transfer/decode per hop while the job barely runs.
func (s *Server) Stealable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.state == StateRunning && j.cp != nil && j.stealCh == nil {
			n++
		}
	}
	if s.queue.Len() == 0 {
		if keep := s.running - 1; n > keep {
			n = keep
			if n < 0 {
				n = 0
			}
		}
	}
	return n
}

// StealOne suspends one running job at its next pick boundary and hands out
// its continuation under a fresh claim. It blocks until the job yields or
// ctx expires. The returned bytes are a complete encoded snapshot; the
// thief resumes it with SubmitContinuation and posts the result back with
// CompleteStolen(job, claim, out).
func (s *Server) StealOne(ctx context.Context) (*Job, string, []byte, error) {
	s.mu.Lock()
	var victim *Job
	for _, j := range s.jobs {
		if j.state != StateRunning || j.cp == nil || j.stealCh != nil {
			continue
		}
		// Oldest admission first: it has burned the most work, so its
		// continuation saves the most recomputation.
		if victim == nil || j.seq < victim.seq {
			victim = j
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return nil, "", nil, ErrNoStealable
	}
	ch := make(chan struct{})
	victim.stealCh = ch
	cp := victim.cp
	s.mu.Unlock()

	cp.RequestYield()
	select {
	case <-ch:
	case <-ctx.Done():
		s.mu.Lock()
		if victim.stealCh == ch {
			// The yield may still land later; with no waiter registered,
			// suspendJob will requeue the job locally.
			victim.stealCh = nil
		} else if victim.state == StateStolen && victim.claim == "" {
			// The yield landed in the same instant the deadline fired and
			// the select chose the deadline: suspendJob already parked the
			// job for this steal, which is now abandoned. No claim was
			// minted, so no reclaim timer will ever requeue it — do it
			// here, or the job is stranded in "stolen" forever.
			s.requeueLocked(victim)
		}
		s.mu.Unlock()
		return nil, "", nil, ctx.Err()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if victim.state != StateStolen {
		// The run finished (or was canceled) before it reached a boundary.
		return nil, "", nil, ErrNoStealable
	}
	claim := randHex(16) // unguessable, single-use
	victim.claim = claim
	enc := victim.enc
	time.AfterFunc(s.cfg.StealTTL, func() { s.reclaim(victim, claim) })
	s.met.Add("steals_out", 1)
	s.logEvent("job stolen", "trace_id", victim.traceID, "job", victim.ID,
		"continuation_bytes", len(enc))
	return victim, claim, enc, nil
}

// suspendJob parks a job whose run yielded its continuation: the executor
// slot is released, and the job either goes out for adoption (a thief is
// waiting) or requeues to continue locally (the thief gave up first).
func (s *Server) suspendJob(j *Job, susp *SuspendedError) {
	s.mu.Lock()
	s.running--
	s.met.Set("jobs_running", int64(s.running))
	if terminal(j.state) {
		// Canceled while yielding; the terminal transition already ran.
		s.mu.Unlock()
		return
	}
	waiter := j.stealCh
	j.stealCh = nil
	j.cp = nil
	j.enc = susp.Enc
	if waiter == nil {
		s.requeueLocked(j)
		s.mu.Unlock()
		return
	}
	j.state = StateStolen
	j.phase = "stolen"
	s.met.Add("jobs_suspended", 1)
	s.mu.Unlock()
	close(waiter)
}

// requeueLocked puts a suspended job back in the queue; its next run adopts
// the continuation in j.enc. The caller holds s.mu. The job was already
// admitted and is still pending, so Drain has not closed the queue, and
// the requeue does not count against the bound.
func (s *Server) requeueLocked(j *Job) {
	j.state = StateQueued
	j.phase = "requeued"
	j.claim = ""
	s.queue.Requeue(j)
	s.met.Set("queue_depth", int64(s.queue.Len()))
}

// reclaim expires a steal claim: if the thief has not completed the job by
// now, the job continues locally from its own continuation. A late
// completion against the expired claim is rejected (at-most-once).
func (s *Server) reclaim(j *Job, claim string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateStolen || j.claim != claim {
		return
	}
	s.met.Add("steals_reclaimed", 1)
	s.logEvent("steal claim expired, requeueing locally", "trace_id", j.traceID, "job", j.ID)
	s.requeueLocked(j)
}

// CompleteStolen finishes a stolen job with the output its thief computed.
// The claim is single-use: the first valid completion wins, anything else
// gets ErrBadClaim. The output is byte-identical to a local run (the
// round-trip property), so it is cached like one.
func (s *Server) CompleteStolen(id, claim string, out *JobOutput) error {
	if out == nil || out.Result == nil {
		return fmt.Errorf("server: stolen completion for %s carries no result", id)
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoJob
	}
	if j.state != StateStolen || claim == "" || j.claim != claim {
		s.mu.Unlock()
		s.met.Add("steals_rejected", 1)
		return ErrBadClaim
	}
	s.finishLocked(j, out, nil, "stolen")
	s.mu.Unlock()
	key := j.key
	if !j.Req.NoCache {
		if ev := s.cache.Put(key, out); ev > 0 {
			s.met.Add("cache_evictions", int64(ev))
		}
		s.met.Set("cache_entries", int64(s.cache.Len()))
	}
	if s.cfg.Checkpoints != nil {
		_ = s.cfg.Checkpoints.Delete(key)
	}
	s.met.Add("steals_completed", 1)
	return nil
}

// SubmitContinuation admits a job that starts from an encoded continuation
// instead of from scratch — the thief side of a cluster steal. The job runs
// through the normal admission queue and executor path; a continuation
// whose snapshot format or key does not match fails the job typed.
func (s *Server) SubmitContinuation(req JobRequest, traceID string, enc []byte) (*Job, error) {
	if len(enc) == 0 {
		return nil, fmt.Errorf("server: empty continuation")
	}
	j, err := s.submit(req, traceID, enc)
	if err != nil {
		return nil, err
	}
	s.met.Add("steals_in", 1)
	return j, nil
}
