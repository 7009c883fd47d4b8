package advprog

import (
	"os"
	"strconv"
	"testing"
)

// FuzzAdversarial is the native fuzz entry: a failing input is just a
// (seed, classBits) pair. Every input becomes a hostile-but-well-formed
// program run with canaries armed, auditor at cadence 1, and the seed's
// rotation pick of fault plan injected.
func FuzzAdversarial(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(AllClasses))
	}
	f.Add(uint64(3), uint8(DeepNest))
	f.Add(uint64(5), uint8(ArgsEdge|ReuseProbe))
	f.Add(uint64(9), uint8(EpilogueRace|BlockStorm))
	f.Fuzz(func(t *testing.T, seed uint64, classBits uint8) {
		classes := Class(classBits) & AllClasses
		p := FromSeed(seed, classes)
		if err := Verify(p, VerifyOpts{Plan: PlanForSeed(seed)}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAdversarialSweep is the nightly seed sweep, gated on ST_ADV_SEEDS:
// run that many consecutive seeds, all classes, with the per-seed
// fault-plan rotation. The nightly workflow sets ST_ADV_SEEDS=256.
func TestAdversarialSweep(t *testing.T) {
	spec := os.Getenv("ST_ADV_SEEDS")
	if spec == "" {
		t.Skip("set ST_ADV_SEEDS=N to run the adversarial seed sweep")
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n <= 0 {
		t.Fatalf("ST_ADV_SEEDS=%q: want a positive integer", spec)
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		p := FromSeed(seed, AllClasses)
		if err := Verify(p, VerifyOpts{Plan: PlanForSeed(seed)}); err != nil {
			t.Errorf("sweep seed %d: %v", seed, err)
		}
	}
}
