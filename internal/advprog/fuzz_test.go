package advprog

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// fuzzEngines returns the engine set under test, filtered by the
// ST_FUZZ_ENGINES environment variable (comma-separated names) so CI can
// shard the fuzz smoke job per engine. Unset or empty means both engines;
// any other name, including the removed parallel engine's, is an error.
func fuzzEngines() ([]core.Engine, error) {
	spec := strings.TrimSpace(os.Getenv("ST_FUZZ_ENGINES"))
	if spec == "" {
		return AllEngines(), nil
	}
	var out []core.Engine
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "sequential":
			out = append(out, core.EngineSequential)
		case "throughput":
			out = append(out, core.EngineThroughput)
		case "":
		default:
			return nil, fmt.Errorf("ST_FUZZ_ENGINES: unknown engine %q (valid engines: sequential, throughput)", name)
		}
	}
	if len(out) == 0 {
		return AllEngines(), nil
	}
	return out, nil
}

// TestFuzzEnginesRejectsUnknown: ST_FUZZ_ENGINES accepts the two engine
// names and rejects any other, including the removed parallel engine's,
// with an error listing the valid engines (a sharded CI job naming a
// missing engine must fail, not silently fuzz the default set).
func TestFuzzEnginesRejectsUnknown(t *testing.T) {
	t.Setenv("ST_FUZZ_ENGINES", "throughput, sequential")
	got, err := fuzzEngines()
	if err != nil || len(got) != 2 || got[0] != core.EngineThroughput || got[1] != core.EngineSequential {
		t.Fatalf("fuzzEngines() = %v, %v", got, err)
	}
	for _, spec := range []string{`parallel`, `sequential,parallel`, `quantum`} {
		t.Setenv("ST_FUZZ_ENGINES", spec)
		if _, err := fuzzEngines(); err == nil ||
			!strings.Contains(err.Error(), "valid engines: sequential, throughput)") {
			t.Fatalf("ST_FUZZ_ENGINES=%s: err = %v, want an unknown-engine error", spec, err)
		}
	}
}

// FuzzAdversarial is the native fuzz entry: a failing input is just a
// (seed, classBits) pair. Every input becomes a hostile-but-well-formed
// program run on the configured engines with canaries armed, auditor at
// cadence 1, and the seed's rotation pick of fault plan injected.
func FuzzAdversarial(f *testing.F) {
	engines, err := fuzzEngines()
	if err != nil {
		f.Fatal(err)
	}
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(AllClasses))
	}
	f.Add(uint64(3), uint8(DeepNest))
	f.Add(uint64(5), uint8(ArgsEdge|ReuseProbe))
	f.Add(uint64(9), uint8(EpilogueRace|BlockStorm))
	f.Fuzz(func(t *testing.T, seed uint64, classBits uint8) {
		classes := Class(classBits) & AllClasses
		p := FromSeed(seed, classes)
		o := VerifyOpts{Engines: engines, Plan: PlanForSeed(seed)}
		if err := Verify(p, o); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAdversarialSweep is the nightly seed sweep, gated on ST_ADV_SEEDS:
// run that many consecutive seeds, all classes, all engines, with the
// per-seed fault-plan rotation. The nightly workflow sets ST_ADV_SEEDS=256.
func TestAdversarialSweep(t *testing.T) {
	spec := os.Getenv("ST_ADV_SEEDS")
	if spec == "" {
		t.Skip("set ST_ADV_SEEDS=N to run the adversarial seed sweep")
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n <= 0 {
		t.Fatalf("ST_ADV_SEEDS=%q: want a positive integer", spec)
	}
	engines, err := fuzzEngines()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		p := FromSeed(seed, AllClasses)
		if err := Verify(p, VerifyOpts{Engines: engines, Plan: PlanForSeed(seed)}); err != nil {
			t.Errorf("sweep seed %d: %v", seed, err)
		}
	}
}
