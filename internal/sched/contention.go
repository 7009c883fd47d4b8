package sched

import "sync/atomic"

// Contention aggregates host-side engine contention counters: how often the
// throughput engine's speculation machinery launched, committed, reran, or
// wholesale-discarded work, and how its host workers stole chains from each
// other. These counts depend on host timing (how many chains fit between
// oracle picks, which segments survive validation), so — unlike Result and
// the obs metrics registry — they are NOT deterministic and must never enter
// a deterministic artifact. They exist for live diagnostics: stserve folds
// them into its host-side metrics and /debug/jobs.
//
// All fields are atomics: one Contention may be shared by concurrent runs
// (the server aggregates a single process-wide instance) and read live
// while runs are in flight. A nil *Contention disables every update behind
// one pointer check.
type Contention struct {
	// SerialFallbacks counts throughput-engine runs that degraded to pure
	// direct execution (one host slot, or instruction tracing on).
	SerialFallbacks atomic.Int64

	// ChainEpochs counts bulk-synchronous launch phases; ChainsLaunched
	// counts chains started across them and ChainSegments the speculated
	// quanta those chains produced.
	ChainEpochs    atomic.Int64
	ChainsLaunched atomic.Int64
	ChainSegments  atomic.Int64
	// ChainCommits counts segments adopted at their oracle pick;
	// ChainReruns counts picks re-executed directly (no live segment, or
	// validation failed); ChainDiscards counts speculated segments thrown
	// away by conflicts, Cilk steals, or run end.
	ChainCommits  atomic.Int64
	ChainReruns   atomic.Int64
	ChainDiscards atomic.Int64
	// HostSteals counts chain tasks a host worker took from another host
	// worker's deque bottom (LTC order); HostStealAttempts counts probe
	// rounds, successful or not.
	HostSteals        atomic.Int64
	HostStealAttempts atomic.Int64

	// BatchedCycles counts the virtual cycles workers executed on the
	// interpreter's batched straight-line tier (machine.Worker.
	// BatchedCycles), folded in at run end. It is the tier-residency
	// signal: a served job whose share here drops to zero has been sent
	// back to the per-instruction reference tier. Under the throughput
	// engine it includes speculated segments, so it can exceed the
	// committed work.
	BatchedCycles atomic.Int64
}

// ContentionSnapshot is the JSON form of a Contention read.
type ContentionSnapshot struct {
	SerialFallbacks int64 `json:"serial_fallbacks"`

	ChainEpochs       int64 `json:"chain_epochs"`
	ChainsLaunched    int64 `json:"chains_launched"`
	ChainSegments     int64 `json:"chain_segments"`
	ChainCommits      int64 `json:"chain_commits"`
	ChainReruns       int64 `json:"chain_reruns"`
	ChainDiscards     int64 `json:"chain_discards"`
	HostSteals        int64 `json:"host_steals"`
	HostStealAttempts int64 `json:"host_steal_attempts"`

	BatchedCycles int64 `json:"batched_vcycles"`
}

// Snapshot reads the counters. The read is per-field atomic, not a
// consistent cut — fine for diagnostics, meaningless for determinism.
func (c *Contention) Snapshot() ContentionSnapshot {
	if c == nil {
		return ContentionSnapshot{}
	}
	return ContentionSnapshot{
		SerialFallbacks: c.SerialFallbacks.Load(),

		ChainEpochs:       c.ChainEpochs.Load(),
		ChainsLaunched:    c.ChainsLaunched.Load(),
		ChainSegments:     c.ChainSegments.Load(),
		ChainCommits:      c.ChainCommits.Load(),
		ChainReruns:       c.ChainReruns.Load(),
		ChainDiscards:     c.ChainDiscards.Load(),
		HostSteals:        c.HostSteals.Load(),
		HostStealAttempts: c.HostStealAttempts.Load(),

		BatchedCycles: c.BatchedCycles.Load(),
	}
}
