package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
BenchmarkHotPath/fib-2   	       8	  81000000 ns/op	         5.00 host-ns/vcycle
BenchmarkHotPath/fib-2   	       8	  90000000 ns/op	         7.00 host-ns/vcycle
BenchmarkHotPath/fib-2   	       8	  80000000 ns/op	         4.00 host-ns/vcycle
BenchmarkFig17SpecSPARC-2	       1	 432339738 ns/op	         1.150 st-rel-avg
PASS
`

func TestParseSummarizesRepeatedSamples(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doc.Benchmarks["BenchmarkHotPath/fib"]["host-ns/vcycle"], (Stat{Median: 5, Min: 4, Max: 7, N: 3}); got != want {
		t.Fatalf("fib host-ns/vcycle = %+v, want %+v", got, want)
	}
	if got, want := doc.Benchmarks["BenchmarkFig17SpecSPARC"]["st-rel-avg"], (Stat{Median: 1.15, Min: 1.15, Max: 1.15, N: 1}); got != want {
		t.Fatalf("spec st-rel-avg = %+v, want %+v", got, want)
	}
	if got := summarize([]float64{4, 1, 3, 2}); got != (Stat{Median: 2.5, Min: 1, Max: 4, N: 4}) {
		t.Fatalf("even-count summary = %+v, want median 2.5", got)
	}
}

func oneMetric(unit string, s Stat) *Doc {
	return &Doc{Benchmarks: map[string]map[string]Stat{"BenchmarkX": {unit: s}}}
}

func TestCheckGatesOnMedians(t *testing.T) {
	base := oneMetric("host-ns/vcycle", Stat{Median: 10, Min: 9, Max: 11, N: 5})
	only := map[string]bool{"host-ns/vcycle": true}
	// One slow sample moves the max, not the median: no regression.
	if bad, _ := check(base, oneMetric("host-ns/vcycle", Stat{Median: 10.5, Min: 9, Max: 40, N: 5}), 0.5, only); len(bad) != 0 {
		t.Fatalf("outlier max gated: %v", bad)
	}
	if bad, _ := check(base, oneMetric("host-ns/vcycle", Stat{Median: 16, Min: 15, Max: 17, N: 5}), 0.5, only); len(bad) != 1 {
		t.Fatalf("median regression of 60%% not gated: %v", bad)
	}
}

func TestCheckRefusesTooFewSamples(t *testing.T) {
	base := oneMetric("steals", Stat{Median: 3, Min: 3, Max: 3, N: 3})
	for _, tc := range []struct {
		name       string
		base, pr   *Doc
		wantRefuse bool
	}{
		{"pr-one-sample", base, oneMetric("steals", Stat{Median: 3, Min: 3, Max: 3, N: 1}), true},
		{"baseline-two-samples", oneMetric("steals", Stat{Median: 3, Min: 3, Max: 3, N: 2}), base, true},
		{"three-each", base, base, false},
	} {
		bad, _ := check(tc.base, tc.pr, 0.10, nil)
		if refused := len(bad) == 1 && strings.Contains(bad[0], "needs 3"); refused != tc.wantRefuse {
			t.Errorf("%s: report %v, want refused=%v", tc.name, bad, tc.wantRefuse)
		}
	}
}
