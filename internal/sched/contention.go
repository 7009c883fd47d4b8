package sched

import "sync/atomic"

// Contention aggregates host-side execution counters. They describe how the
// host ran a job, not what the job computed: they vary with the tier the
// interpreter took (observability splits batches, tracing disables them) and
// restart from zero on a resumed run, so — unlike Result and the obs
// metrics registry — they must never enter a deterministic artifact. They
// exist for live diagnostics: stserve folds them into its host-side metrics
// and /debug/jobs.
//
// All fields are atomics: one Contention may be shared by concurrent runs
// (the server aggregates a single process-wide instance) and read live
// while runs are in flight. A nil *Contention disables every update behind
// one pointer check.
type Contention struct {
	// BatchedCycles counts the virtual cycles workers executed on the
	// interpreter's batched tier (machine.Worker.BatchedCycles), folded in
	// at run end. It is the tier-residency signal: a served job whose share
	// here drops to zero has been sent back to the per-instruction
	// reference tier.
	BatchedCycles atomic.Int64
	// ReferenceCycles counts the virtual cycles the per-instruction
	// reference path charged (machine.Worker.ReferenceCycles), folded in
	// the same way. Batched plus reference is the run's instruction work;
	// the rest of WorkCycles is runtime services (builtins, suspension
	// unwinding, steal handshakes) and idle waits.
	ReferenceCycles atomic.Int64
}

// ContentionSnapshot is the JSON form of a Contention read.
type ContentionSnapshot struct {
	BatchedCycles   int64 `json:"batched_vcycles"`
	ReferenceCycles int64 `json:"reference_vcycles"`
}

// Snapshot reads the counters. The read is per-field atomic, not a
// consistent cut — fine for diagnostics, meaningless for determinism.
func (c *Contention) Snapshot() ContentionSnapshot {
	if c == nil {
		return ContentionSnapshot{}
	}
	return ContentionSnapshot{
		BatchedCycles:   c.BatchedCycles.Load(),
		ReferenceCycles: c.ReferenceCycles.Load(),
	}
}
