package invariant_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/exportset"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
)

// newMachine compiles fib and returns a machine that has run it to
// completion on one worker — a real, healthy end state to audit.
func newMachine(t *testing.T, col *obs.Collector) *machine.Machine {
	t.Helper()
	w := apps.Fib(12, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(prog, mem.New(1<<16), isa.SPARC(), 1, machine.Options{Obs: col})
	if _, err := sched.Run(m, w.Entry, w.Args, sched.Config{Obs: col}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCleanMachinePasses(t *testing.T) {
	m := newMachine(t, nil)
	if v := invariant.Check(m); v != nil {
		t.Fatalf("clean machine reported violation: %v\n%s", v, v.Dump)
	}
}

func TestCorruptedExportedSetCaught(t *testing.T) {
	m := newMachine(t, nil)
	w := m.Workers[0]
	// A frame exported out of thin air desyncs the max-E cell mirror —
	// exactly what a buggy suspend path would do.
	w.Exported().Push(exportset.Entry{FP: w.Stack().Lo + 64, Low: w.Stack().Lo + 32})
	v := invariant.Check(m)
	if v == nil {
		t.Fatal("corrupted exported set not caught")
	}
	if v.Rule != "section-3.2" {
		t.Fatalf("rule = %q, want section-3.2 (max-E mirror)", v.Rule)
	}
	var verr error = v
	var typed *invariant.Violation
	if !errors.As(verr, &typed) || typed.Worker != 0 {
		t.Fatalf("violation not typed/attributed: %v", verr)
	}
	if !strings.Contains(v.Dump, "w0:") {
		t.Fatalf("dump missing worker state:\n%s", v.Dump)
	}
}

func TestRetiredFrameReentryCaught(t *testing.T) {
	m := newMachine(t, nil)
	w := m.Workers[0]
	// Queue a context whose single frame has a zeroed return slot — a
	// retired frame. Resuming it would re-enter freed stack space.
	fp := w.Stack().Lo + 128
	m.Mem.Store(fp-1, 0)
	m.Mem.Store(fp-2, 0)
	w.ReadyQ.PushTail(&machine.Context{ResumePC: 0, Top: fp, Bottom: fp})
	v := invariant.Check(m)
	if v == nil {
		t.Fatal("retired-frame re-entry not caught")
	}
	if v.Rule != "retired-reentry" {
		t.Fatalf("rule = %q, want retired-reentry (%s)", v.Rule, v.Detail)
	}
}

func TestBrokenContextChainCaught(t *testing.T) {
	m := newMachine(t, nil)
	w := m.Workers[0]
	w.ReadyQ.PushTail(&machine.Context{Top: 0, Bottom: 0})
	v := invariant.Check(m)
	if v == nil || v.Rule != "context-chain" {
		t.Fatalf("null context not caught: %v", v)
	}
}

func TestOverAttributionCaught(t *testing.T) {
	col := obs.New()
	m := newMachine(t, col)
	w := m.Workers[0]
	w.Obs.Charge(obs.PhaseIdle, w.Cycles+1_000_000)
	v := invariant.Check(m)
	if v == nil || v.Rule != "obs-attribution" {
		t.Fatalf("over-attribution not caught: %v", v)
	}
}

func TestAuditorCadence(t *testing.T) {
	m := newMachine(t, nil)
	a := invariant.New(10)
	for i := 1; i <= 35; i++ {
		if v := a.Tick(m); v != nil {
			t.Fatalf("tick %d: unexpected violation: %v", i, v)
		}
	}
	if a.Audits() != 3 {
		t.Fatalf("audits = %d after 35 ticks at cadence 10, want 3", a.Audits())
	}
	var nilA *invariant.Auditor
	if nilA.Tick(m) != nil || nilA.Audits() != 0 {
		t.Fatal("nil auditor did something")
	}
}

// TestCanaryClobberCaught: a live canary whose recorded value disagrees
// with memory is a caller-integrity violation.
func TestCanaryClobberCaught(t *testing.T) {
	m := newMachine(t, nil)
	cm := machine.NewCanaryMap()
	m.Opts.Canary = cm
	addr := int64(mem.Guard)
	cm.RegisterRaw(machine.CanaryEntry{Addr: addr, Want: m.Mem.Load(addr) + 1, Owner: 0, FP: 0})
	v := invariant.Check(m)
	if v == nil || v.Rule != "caller-integrity" {
		t.Fatalf("clobbered canary not caught: %v", v)
	}
}

// TestExposedPrivateCanaryCaught: a private canary below its owner's stack
// top sits in space the runtime hands out as free — the confidentiality
// rule must fire even though the word's value is still intact.
func TestExposedPrivateCanaryCaught(t *testing.T) {
	m := newMachine(t, nil)
	cm := machine.NewCanaryMap()
	m.Opts.Canary = cm
	w := m.Workers[0]
	addr := w.Stack().Lo + 4
	if addr >= w.SP() {
		t.Fatalf("test setup: addr %d not below stack top %d", addr, w.SP())
	}
	cm.RegisterRaw(machine.CanaryEntry{Addr: addr, Want: m.Mem.Load(addr), Owner: 0, FP: addr + 8, Private: true})
	v := invariant.Check(m)
	if v == nil || v.Rule != "frame-confidentiality" {
		t.Fatalf("exposed private canary not caught: %v", v)
	}
	if !strings.Contains(v.Detail, "exposed below") {
		t.Fatalf("wrong confidentiality diagnosis: %s", v.Detail)
	}
}

// TestCheckAllCollectsEverything: with two independent faults planted,
// Check returns the first while CheckAll returns both, and Report renders
// them all.
func TestCheckAllCollectsEverything(t *testing.T) {
	m := newMachine(t, nil)
	cm := machine.NewCanaryMap()
	m.Opts.Canary = cm
	a1 := int64(mem.Guard)
	cm.RegisterRaw(machine.CanaryEntry{Addr: a1, Want: m.Mem.Load(a1) + 1, Owner: 0, FP: 0})
	a2 := a1 + 1
	cm.RegisterRaw(machine.CanaryEntry{Addr: a2, Want: m.Mem.Load(a2), Owner: 0, FP: 0, Private: true})

	if v := invariant.Check(m); v == nil {
		t.Fatal("Check missed the planted faults")
	}
	all := invariant.CheckAll(m)
	if len(all) < 2 {
		t.Fatalf("CheckAll found %d violations, want >= 2", len(all))
	}
	rules := map[string]bool{}
	for _, v := range all {
		rules[v.Rule] = true
	}
	if !rules["caller-integrity"] || !rules["frame-confidentiality"] {
		t.Fatalf("CheckAll rules = %v, want both security rules", rules)
	}
	rep := invariant.Report(m)
	if !strings.Contains(rep, "caller-integrity") || !strings.Contains(rep, "frame-confidentiality") {
		t.Fatalf("Report missing rules:\n%s", rep)
	}
}

// TestDumpNeverPanics: the dump renderer is called from failure paths, so
// it must cope with any partially initialized machine — nil machine, nil
// memory, nil workers, zero-value workers with no Obs and no segments.
func TestDumpNeverPanics(t *testing.T) {
	for _, m := range []*machine.Machine{
		nil,
		{},
		{Workers: []*machine.Worker{nil}},
		{Workers: []*machine.Worker{{}}},
	} {
		if s := invariant.Dump(m); s == "" {
			t.Fatal("empty dump")
		}
	}
}
