package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// newTestServe sets up a one-node serving bench on the quick fib app.
func newTestServe(t *testing.T) *serveBench {
	t.Helper()
	b, err := newServeBench(serveSpec{nodes: 1, slots: 1}, []string{"fib"}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	return b
}

func tallyOf(samples []sample) *tally {
	var tl tally
	for _, s := range samples {
		tl.add(s.outcome)
	}
	return &tl
}

func TestServedWrongReferenceCountsAsFailure(t *testing.T) {
	b := newTestServe(t)
	samples := b.window(time.Now().Add(300 * time.Millisecond))
	if len(samples) == 0 {
		t.Fatal("no operations in the window")
	}
	b.check(samples, 1)
	if tl := tallyOf(samples); tl.failed() != 0 {
		t.Fatalf("%d of %d served operations failed against true references", tl.failed(), tl.attempted)
	}

	// Corrupt every kept reply: each re-run must now count the operations
	// on its tuple as wrong results.
	b.mu.Lock()
	for _, v := range b.first {
		res := *v.Result
		res.RV++
		v.Result = &res
	}
	b.mu.Unlock()
	b.check(samples, 1)
	tl := tallyOf(samples)
	if tl.by[wrongResult] == 0 {
		t.Fatal("a deliberately wrong reference was not counted as a failure")
	}
	if tl.errorRate() == 0 {
		t.Error("error rate stayed 0 with wrong results")
	}
}

func TestMigrateWrongReferenceCountsAsFailure(t *testing.T) {
	b, err := newMigrateBench([]string{"fib"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := b.window(time.Now().Add(200 * time.Millisecond))
	if tl := tallyOf(samples); tl.attempted == 0 || tl.failed() != 0 {
		t.Fatalf("migrate window: %d attempted, %d failed", tl.attempted, tl.failed())
	}
	for _, r := range b.refs {
		r.Steals++
	}
	samples = b.window(time.Now().Add(200 * time.Millisecond))
	if tl := tallyOf(samples); tl.by[wrongResult] != tl.attempted {
		t.Fatalf("%d of %d resumes against wrong references counted as wrong results", tl.by[wrongResult], tl.attempted)
	}
}

// Each decomposed replay must reproduce its real entry point's result.
func TestReplaysMatchEntryPoints(t *testing.T) {
	serve := newTestServe(t)
	batch, err := newBatchBench([]string{"magic"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	migrate, err := newMigrateBench([]string{"fib"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]bench{"serve": serve, "batch": batch, "migrate": migrate} {
		samples := b.window(time.Now().Add(20 * time.Millisecond))
		if len(samples) == 0 {
			t.Fatalf("%s: no operation", name)
		}
		r := newRecorder()
		for i, tracedFirst := range []bool{true, false} {
			r.op = i
			rp, err := b.replay(r, samples[0].tuple, tracedFirst)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rp.match {
				t.Errorf("%s: decomposed result differs from the entry point's", name)
			}
			total, self := r.opSpans(i)
			var sum time.Duration
			for _, d := range self {
				sum += d
			}
			if total <= 0 || sum != total {
				t.Errorf("%s: self times sum to %v, root span %v", name, sum, total)
			}
			if self[spanRun] <= 0 || rp.counts.vcycles <= 0 {
				t.Errorf("%s: no scheduler span or work: %v, %d vcycles", name, self[spanRun], rp.counts.vcycles)
			}
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the result
// line carries, with the same units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("workloads %v, benchmark runs %v", names, have)
	}
	var e2e []metric
	for _, m := range (&e2eResult{}).metrics() {
		e2e = append(e2e, metric{m.name, m.unit, ""})
	}
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].Better = ""
	}
	if !slices.Equal(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, result line has %v", spec.EndToEnd, e2e)
	}
	var layers []metric
	for _, m := range layerMetrics {
		if m.listed {
			layers = append(layers, metric{m.name, m.unit, m.better})
		}
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("per_layer %v, result line has %v", spec.PerLayer, layers)
	}
}

func TestRefusesEngineOverrides(t *testing.T) {
	for _, v := range overrides {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			var out bytes.Buffer
			err := run([]string{"--workload", "batch", "--seconds", "1"}, &out)
			if err == nil || !strings.Contains(err.Error(), v) {
				t.Fatalf("run with %s set: err %v", v, err)
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before refusing", out.String())
			}
		})
	}
}
