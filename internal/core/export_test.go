package core

import (
	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/machine"
)

// Prepare is prepare for the external tests: it builds a run's machine and
// runs the workload's memory setup. The caller releases the machine's
// memory.
func Prepare(prog *isa.Program, w *apps.Workload, cfg Config) (*machine.Machine, []int64, error) {
	return prepare(prog, w, &cfg)
}
