package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
)

// TestParseEngine is the table test for command-line engine names: every
// alias maps to its engine, and unknown names fail with an error that lists
// the valid engines. The removed parallel engine's names are unknown like
// any other: the error lists only the engines that remain.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Engine
		wantErr bool
	}{
		{"", EngineDefault, false},
		{"default", EngineDefault, false},
		{"seq", EngineSequential, false},
		{"sequential", EngineSequential, false},
		{"tp", EngineThroughput, false},
		{"throughput", EngineThroughput, false},
		{"Sequential", EngineDefault, true},
		{"fast", EngineDefault, true},
		{"parallel ", EngineDefault, true},
		{`par`, EngineDefault, true},
		{`parallel`, EngineDefault, true},
	} {
		got, err := ParseEngine(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseEngine(%q): no error", tc.in)
				continue
			}
			checkEngineList(t, fmt.Sprintf("ParseEngine(%q)", tc.in), err)
			continue
		}
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestEngineEnvResolution checks ST_ENGINE resolution: valid values select
// their engine, and unknown values fail the run with an error listing the
// valid engines instead of silently falling back to sequential.
func TestEngineEnvResolution(t *testing.T) {
	for _, tc := range []struct {
		env  string
		want sched.Engine
	}{
		{"", sched.EngineSequential},
		{"sequential", sched.EngineSequential},
		{"throughput", sched.EngineThroughput},
	} {
		t.Setenv("ST_ENGINE", tc.env)
		got, err := EngineDefault.schedEngine()
		if err != nil {
			t.Fatalf("ST_ENGINE=%q: %v", tc.env, err)
		}
		if got != tc.want {
			t.Fatalf("ST_ENGINE=%q resolved to %v, want %v", tc.env, got, tc.want)
		}
	}

	// An explicit engine ignores the environment entirely.
	t.Setenv("ST_ENGINE", "garbage")
	if got, err := EngineThroughput.schedEngine(); err != nil || got != sched.EngineThroughput {
		t.Fatalf("explicit engine consulted ST_ENGINE: %v, %v", got, err)
	}

	// An unknown forced engine — including the removed parallel engine's
	// names — must fail the run, whatever the mode, not silently run
	// sequentially.
	for _, env := range []string{"garbage", `par`, `parallel`} {
		t.Setenv("ST_ENGINE", env)
		for _, mode := range []Mode{Sequential, StackThreads, Cilk} {
			_, err := Run(apps.Fib(5, apps.ST), Config{Mode: mode, Workers: 2})
			if err == nil {
				t.Fatalf("mode=%v: run with ST_ENGINE=%s succeeded", mode, env)
			}
			where := fmt.Sprintf("mode=%v ST_ENGINE=%s", mode, env)
			if !strings.Contains(err.Error(), "ST_ENGINE") {
				t.Fatalf("%s: error %q does not mention ST_ENGINE", where, err)
			}
			checkEngineList(t, where, err)
		}
	}
}

// checkEngineList asserts an unknown-engine error is the typed rejection
// listing exactly the remaining engines: sequential and throughput, never
// the removed parallel engine.
func checkEngineList(t *testing.T, where string, err error) {
	t.Helper()
	_, list, ok := strings.Cut(err.Error(), "valid engines: ")
	if !ok || !strings.HasPrefix(list, "sequential, throughput)") {
		t.Errorf("%s: error %q does not list exactly the valid engines", where, err)
	}
}
