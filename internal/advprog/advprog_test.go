package advprog

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/machine"
)

// TestFromSeedDeterministic: equal (seed, classes) inputs must reproduce
// the identical program — a failing fuzz input is two numbers.
func TestFromSeedDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		a := FromSeed(seed, AllClasses)
		b := FromSeed(seed, AllClasses)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestFromSeedNodeCounts pins the plain trees (BlockStorm alone) that the
// machine and scheduler random-tree tests run: exact node count and expected
// result per seed. A generator change that grows, shrinks or reshapes those
// trees shifts these numbers and fails here.
func TestFromSeedNodeCounts(t *testing.T) {
	cases := []struct {
		seed     uint64
		nodes    int
		expected int64
	}{
		{seed: 1, nodes: 1, expected: 8},
		{seed: 2, nodes: 9, expected: 108},
		{seed: 3, nodes: 1, expected: 8},
		{seed: 4, nodes: 4, expected: 45},
		{seed: 5, nodes: 1, expected: 8},
		{seed: 6, nodes: 1, expected: 15},
	}
	var count func(n *Node) int
	count = func(n *Node) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	for _, c := range cases {
		p := FromSeed(c.seed, BlockStorm)
		if p.Nodes != c.nodes || p.Expected() != c.expected {
			t.Errorf("seed %d: %d nodes, expected %d; want %d nodes, expected %d",
				c.seed, p.Nodes, p.Expected(), c.nodes, c.expected)
		}
		if got := count(p.Root); got != p.Nodes {
			t.Errorf("seed %d: reported count %d != tree walk %d", c.seed, p.Nodes, got)
		}
	}
}

// TestDeepNestDepth: the DeepNest class must emit fork chains of at least
// MinNestDepth levels.
func TestDeepNestDepth(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		p := FromSeed(seed, DeepNest)
		if p.NestDepth < MinNestDepth {
			t.Fatalf("seed %d: nest depth %d < %d", seed, p.NestDepth, MinNestDepth)
		}
	}
}

// TestClassSelection: a single-class request must not leak other classes'
// constructs into the tree.
func TestClassSelection(t *testing.T) {
	p := FromSeed(3, DeepNest)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Edge != -1 || n.Probe || n.Race {
			t.Fatalf("node %d carries argsedge/probe/race constructs under DeepNest only", n.ID)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
}

// TestParseClasses covers the CLI surface.
func TestParseClasses(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		err  bool
	}{
		{"all", AllClasses, false},
		{"", AllClasses, false},
		{"deepnest", DeepNest, false},
		{"deepnest,blockstorm", DeepNest | BlockStorm, false},
		{"argsedge, epiloguerace", ArgsEdge | EpilogueRace, false},
		{"31", AllClasses, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseClasses(c.in)
		if c.err != (err != nil) {
			t.Fatalf("ParseClasses(%q): err=%v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseClasses(%q)=%v, want %v", c.in, got, c.want)
		}
	}
}

// TestVerifyCleanSeeds: a few adversarial programs,
// auditor at cadence 1, canaries armed — the harness's basic positive
// property (no hostile-but-well-formed program breaks the discipline).
func TestVerifyCleanSeeds(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		if err := Verify(FromSeed(seed, AllClasses), VerifyOpts{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyUnderFaults: the same property with the adversarial fault
// preset injected.
func TestVerifyUnderFaults(t *testing.T) {
	if err := Verify(FromSeed(7, AllClasses), VerifyOpts{Plan: "adversarial"}); err != nil {
		t.Fatal(err)
	}
}

// TestCanaryAccounting: every stamped canary must be retired by the
// program itself — the map drains to zero with registered == retired.
func TestCanaryAccounting(t *testing.T) {
	p := FromSeed(11, AllClasses)
	cm := machine.NewCanaryMap()
	res, err := core.Run(Workload(p), core.Config{
		Mode: core.StackThreads, Workers: 4,
		Seed: p.Seed, Audit: invariant.New(1), Canary: cm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != p.Expected() {
		t.Fatalf("rv=%d want %d", res.RV, p.Expected())
	}
	if cm.Registered == 0 {
		t.Fatal("program stamped no canaries")
	}
	if cm.LiveCount() != 0 || cm.Registered != cm.Retired {
		t.Fatalf("canaries leaked: live=%d registered=%d retired=%d",
			cm.LiveCount(), cm.Registered, cm.Retired)
	}
	if cm.Clobbered != 0 {
		t.Fatalf("clean run recorded %d clobbers", cm.Clobbered)
	}
}

// TestCanaryDisarmed: without a canary map the canary builtins are plain
// stores — the program still runs and verifies.
func TestCanaryDisarmed(t *testing.T) {
	p := FromSeed(2, AllClasses)
	res, err := core.Run(Workload(p), core.Config{
		Mode: core.StackThreads, Workers: 4, Seed: p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RV != p.Expected() {
		t.Fatalf("rv=%d want %d", res.RV, p.Expected())
	}
}
