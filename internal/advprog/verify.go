package advprog

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/machine"
)

// VerifyOpts parameterizes one adversarial verification.
type VerifyOpts struct {
	// Workers is the virtual worker count (default 4).
	Workers int
	// Plan names a fault preset to inject ("" = fault-free); the plan's
	// seed is the program seed, so one (seed, classes, plan) triple
	// reproduces the exact run.
	Plan string
	// AuditEvery is the auditor cadence (default 1: audit every pick).
	AuditEvery int64
}

// Verify runs the program with the canary map armed and the invariant
// auditor at cadence AuditEvery, and asserts the three harness properties:
// no violation (the auditor aborts the run on any), the accumulator matches
// Expected, and every stamped canary was retired. The returned error
// carries the failing rule; nil means the program could not break the
// frame discipline.
func Verify(p *Program, o VerifyOpts) error {
	if p == nil || p.Root == nil {
		return errors.New("advprog: nil program")
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	auditEvery := o.AuditEvery
	if auditEvery <= 0 {
		auditEvery = 1
	}
	var inj *fault.Injector
	if o.Plan != "" {
		plan, err := fault.PlanByName(o.Plan)
		if err != nil {
			return err
		}
		plan.Seed = p.Seed
		inj = fault.New(&plan)
	}
	cm := machine.NewCanaryMap()
	res, err := core.Run(Workload(p), core.Config{
		Mode:    core.StackThreads,
		Workers: workers,
		Seed:    p.Seed,
		Audit:   invariant.New(auditEvery),
		Canary:  cm,
		Fault:   inj,
	})
	if err != nil {
		var v *invariant.Violation
		if errors.As(err, &v) {
			return fmt.Errorf("advprog: seed=%d classes=%s plan=%q: rule %s broken: %w",
				p.Seed, p.Classes, o.Plan, v.Rule, err)
		}
		return fmt.Errorf("advprog: seed=%d classes=%s plan=%q: run failed: %w",
			p.Seed, p.Classes, o.Plan, err)
	}
	if want := p.Expected(); res.RV != want {
		return fmt.Errorf("advprog: seed=%d classes=%s plan=%q: accumulator=%d, want %d",
			p.Seed, p.Classes, o.Plan, res.RV, want)
	}
	if n := cm.LiveCount(); n != 0 {
		return fmt.Errorf("advprog: seed=%d classes=%s plan=%q: %d canaries leaked (registered=%d retired=%d)",
			p.Seed, p.Classes, o.Plan, n, cm.Registered, cm.Retired)
	}
	return nil
}

// PlanForSeed rotates a seed through the fault-free run and every
// simulation-perturbing preset, adversarial first — the fuzz driver's
// default chaos schedule.
func PlanForSeed(seed uint64) string {
	plans := append([]string{"", "adversarial"}, fault.SimPlanNames()...)
	return plans[seed%uint64(len(plans))]
}
