package fault

import (
	"testing"
	"time"
)

// drawSequence records one decision per listed site over n visits.
func drawSequence(f *Injector, n int) []bool {
	var out []bool
	for i := 0; i < n; i++ {
		out = append(out, f.StealDrop())
		out = append(out, f.StealDelay() > 0)
		out = append(out, f.SpuriousPoll())
		out = append(out, f.Stall() > 0)
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	p, err := PlanByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 42
	a := drawSequence(New(&p), 500)
	b := drawSequence(New(&p), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
	}
	p.Seed = 43
	c := drawSequence(New(&p), 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not change the fault sequence")
	}
}

// Streams are independent: consulting one site more often must not shift
// another site's decisions.
func TestStreamIndependence(t *testing.T) {
	p := Plan{Name: "t", Seed: 7, StealDropPct: 50, StallPct: 50}
	a := New(&p)
	b := New(&p)
	// Perturb b's stall stream usage pattern.
	for i := 0; i < 100; i++ {
		b.Stall()
	}
	for i := 0; i < 200; i++ {
		if a.StealDrop() != b.StealDrop() {
			t.Fatalf("steal_drop draw %d shifted by stall stream usage", i)
		}
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var f *Injector
	if f.StealDrop() || f.StealDelay() != 0 || f.SpuriousPoll() || f.Stall() != 0 ||
		f.ExecPanic("k", 0) || f.ExecDelay("k", 0) != 0 {
		t.Fatal("nil injector injected a fault")
	}
	if f.Total() != 0 || f.Counts() != nil {
		t.Fatal("nil injector reported counts")
	}
}

func TestServingDecisionsStatelessAndAttemptKeyed(t *testing.T) {
	p := Plan{Name: "t", Seed: 9, ExecPanicPct: 50, ExecDelayPct: 50, ExecDelayMs: 10}
	f := New(&p)
	for attempt := 0; attempt < 20; attempt++ {
		want := f.ExecPanic("job-key", attempt)
		for i := 0; i < 3; i++ {
			if f.ExecPanic("job-key", attempt) != want {
				t.Fatalf("serving decision not stateless for attempt %d", attempt)
			}
		}
	}
	// Different attempts must eventually differ (a retry re-rolls).
	var saw [2]bool
	for attempt := 0; attempt < 64; attempt++ {
		if f.ExecPanic("job-key", attempt) {
			saw[1] = true
		} else {
			saw[0] = true
		}
	}
	if !saw[0] || !saw[1] {
		t.Fatal("serving decisions ignore the attempt number")
	}
	if d := f.ExecDelay("k", 0); d != 0 && d != 10*time.Millisecond {
		t.Fatalf("ExecDelay = %v, want 0 or 10ms", d)
	}
}

// TestDecisionsPinned pins injection decisions and exported stream states to
// values recorded before the spec_abort site was retired. The site keeps its
// slot: servingRoll hashes site+1 and State carries numSites streams, so
// renumbering would change every serving decision and make checkpoints
// taken before the change unreadable.
func TestDecisionsPinned(t *testing.T) {
	wantStreams := []uint64{0x702f3e2e932db29, 0x4432eaaddb75fe6e, 0x29a7eaf481ba46d9,
		0x796937bec84642f, 0x3290c8341b4de9c1, 0x4b57f930424208eb, 0xcbbd05c7de73a889}
	for _, tc := range []struct {
		plan                     string
		drop, delay, spur, stall uint64
	}{
		{"mixed", 0x1004801048800801, 0x4202408200601100, 0, 0x0000400000400000},
		{"adversarial", 0x1004809458802801, 0x4282c08300601101, 0x0000000040000000, 0x8000412000400000},
	} {
		p, err := PlanByName(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = 42
		f := New(&p)
		var drop, delay, spur, stall uint64
		for i := 0; i < 64; i++ {
			if f.StealDrop() {
				drop |= 1 << i
			}
			if f.StealDelay() != 0 {
				delay |= 1 << i
			}
			if f.SpuriousPoll() {
				spur |= 1 << i
			}
			if f.Stall() != 0 {
				stall |= 1 << i
			}
		}
		if drop != tc.drop || delay != tc.delay || spur != tc.spur || stall != tc.stall {
			t.Errorf("%s:42 draws drop=%#x delay=%#x spur=%#x stall=%#x, want %#x %#x %#x %#x",
				tc.plan, drop, delay, spur, stall, tc.drop, tc.delay, tc.spur, tc.stall)
		}
		got := f.ExportState().Streams
		if len(got) != 7 || numSites != 7 {
			t.Fatalf("%s: ExportState has %d streams (numSites %d), want 7", tc.plan, len(got), numSites)
		}
		for i := range got {
			if got[i] != wantStreams[i] {
				t.Errorf("%s: stream %d (%s) = %#x, want %#x", tc.plan, i, siteNames[i], got[i], wantStreams[i])
			}
		}
	}

	f := New(&Plan{Seed: 42, ExecPanicPct: 50, ExecDelayPct: 50})
	for _, tc := range []struct {
		key          string
		panic, delay uint64
	}{
		{"a", 0x41cf40c77dbf7124, 0xe2119cf3967999c1},
		{"app=fib|full=false", 0x6fb5a9c73288fb5f, 0xf1e546c4c47fe6df},
		{"k3", 0x84bf45f42c0c377e, 0xba9044695cf0ee32},
	} {
		var pm, dm uint64
		for a := 0; a < 64; a++ {
			if f.ExecPanic(tc.key, a) {
				pm |= 1 << a
			}
			if f.ExecDelay(tc.key, a) != 0 {
				dm |= 1 << a
			}
		}
		if pm != tc.panic || dm != tc.delay {
			t.Errorf("key %q: panic=%#x delay=%#x, want %#x %#x", tc.key, pm, dm, tc.panic, tc.delay)
		}
	}
}

func TestParsePlan(t *testing.T) {
	if p, err := ParsePlan(""); err != nil || p != nil {
		t.Fatalf("ParsePlan(\"\") = %v, %v", p, err)
	}
	if p, err := ParsePlan("none"); err != nil || p != nil {
		t.Fatalf("ParsePlan(none) = %v, %v", p, err)
	}
	p, err := ParsePlan("steal-storm:17")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "steal-storm" || p.Seed != 17 || p.StealDropPct == 0 {
		t.Fatalf("bad parsed plan %+v", p)
	}
	if p.String() != "steal-storm:17" {
		t.Fatalf("String = %q", p.String())
	}
	if _, err := ParsePlan("no-such-plan"); err == nil {
		t.Fatal("unknown plan accepted")
	}
	if _, err := ParsePlan("mixed:bogus"); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestPlanLists(t *testing.T) {
	if len(PlanNames()) != len(presets) {
		t.Fatal("PlanNames misses presets")
	}
	for _, name := range SimPlanNames() {
		p, err := PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.StealDropPct+p.StealDelayPct+p.SpuriousPollPct+p.StallPct == 0 {
			t.Fatalf("sim plan %s has no simulation sites", name)
		}
	}
	for _, name := range []string{"serve-panic", "serve-latency"} {
		for _, sim := range SimPlanNames() {
			if sim == name {
				t.Fatalf("%s listed as a sim plan", name)
			}
		}
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	p := Plan{Name: "t", Seed: 3, StallPct: 25}
	f := New(&p)
	fired := 0
	for i := 0; i < 10_000; i++ {
		if f.Stall() > 0 {
			fired++
		}
	}
	if fired < 2000 || fired > 3000 {
		t.Fatalf("25%% site fired %d/10000 times", fired)
	}
	if f.Total() != int64(fired) || f.Counts()["stall"] != int64(fired) {
		t.Fatalf("counters inconsistent: total=%d counts=%v", f.Total(), f.Counts())
	}
}
