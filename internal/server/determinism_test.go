package server

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/obs"
)

// TestServingPathDeterminism is the serving-path determinism contract: a
// job served cold, the same tuple served from the cache, and the same tuple
// re-executed with the cache bypassed all return
// byte-identical Result, metrics, profile, and trace — and all match a
// direct core.Run with an obs collector, outside the server entirely.
func TestServingPathDeterminism(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16})
	defer s.Drain()

	submit := func(req JobRequest) *JobOutput {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, j)
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
		}
		return j.out
	}

	base := JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3}
	cold := submit(base)
	hit := submit(base)
	rerun := submit(JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3, NoCache: true})

	// Direct execution: same tuple, no server, no cache.
	w, err := figures.Workload("fib", figures.Quick, apps.ST)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	res, err := core.Run(w, core.Config{
		Mode: core.StackThreads, Workers: 4, Seed: 3,
		CPU: isa.CostModelByName("sparc"), Obs: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	mjson, err := col.Metrics.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var prof, tr bytes.Buffer
	col.WriteReport(&prof)
	if err := col.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}

	check := func(name string, out *JobOutput) {
		t.Helper()
		if !reflect.DeepEqual(out.Result, res) {
			t.Errorf("%s: Result differs from direct run:\n  served: %+v\n  direct: %+v",
				name, out.Result, res)
		}
		if !bytes.Equal(out.Metrics, mjson) {
			t.Errorf("%s: metrics differ from direct run", name)
		}
		if out.Profile != prof.String() {
			t.Errorf("%s: profile differs from direct run", name)
		}
		if !bytes.Equal(out.Trace, tr.Bytes()) {
			t.Errorf("%s: trace differs from direct run", name)
		}
	}
	check("cold", cold)
	check("cache-hit", hit)
	check("cache-bypass", rerun)
}
