// Command benchjson converts `go test -bench` output into a stable JSON
// document and gates pull requests against a committed baseline.
//
// Convert:
//
//	go test -bench=. -benchtime=1x -count 3 -run='^$' ./... | benchjson -out BENCH_PR.json
//
// Each benchmark metric keeps the median, minimum and maximum of its
// samples (one per result line, so `go test -count N` gives N) and their
// number.
//
// Gate (exit status 1 on regression):
//
//	benchjson -check -baseline BENCH_BASELINE.json -pr BENCH_PR.json
//
// The gate compares medians, and refuses a gated metric with fewer than
// minSamples samples on either side: one sample measures cold allocation as
// often as the code. Only deterministic virtual-time metrics are gated by
// default: figures like
// st-rel-avg or st/cilk are pure functions of the simulated configuration
// and reproduce exactly on any host, so a >tolerance change is a real
// regression, never runner noise. Host-dependent metrics (ns/op, vcycles/s,
// host-ns/vcycle) are recorded for trend-watching and gated only when -only
// names them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// minSamples is the fewest samples a gated metric may have.
const minSamples = 3

// gatedUnits are the metric units compared against the baseline by default.
var gatedUnits = map[string]bool{
	"st-rel-avg":             true,
	"st-rel-seq":             true,
	"cilk-rel-seq":           true,
	"st/cilk":                true,
	"vcycles/iter":           true,
	"vcycles/round":          true,
	"overhead-vcycles/steal": true,
	"steals":                 true,
}

// Doc is the JSON document: benchmark name → metric unit → sample summary.
type Doc struct {
	Benchmarks map[string]map[string]Stat `json:"benchmarks"`
}

// Stat summarizes one metric's samples.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the median (the mean of the middle two for an even
// count), minimum and maximum of a non-empty sample set, sorting it in
// place.
func summarize(v []float64) Stat {
	slices.Sort(v)
	n := len(v)
	med := v[n/2]
	if n%2 == 0 {
		med = (v[n/2-1] + v[n/2]) / 2
	}
	return Stat{Median: med, Min: v[0], Max: v[n-1], N: n}
}

// parse reads `go test -bench` output. Each result line looks like
//
//	BenchmarkName-8  <tab> 1 <tab> 123 ns/op <tab> 1.5 st-rel-avg
//
// with value/unit pairs after the iteration count. A benchmark that
// appears on several lines (go test -count N) contributes one sample per
// line.
func parse(r io.Reader) (*Doc, error) {
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: not a result line
		}
		metrics := samples[name]
		if metrics == nil {
			metrics = map[string][]float64{}
			samples[name] = metrics
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: bad value %q", name, fields[i])
			}
			metrics[fields[i+1]] = append(metrics[fields[i+1]], v)
		}
	}
	doc := &Doc{Benchmarks: map[string]map[string]Stat{}}
	for name, metrics := range samples {
		doc.Benchmarks[name] = map[string]Stat{}
		for unit, v := range metrics {
			doc.Benchmarks[name][unit] = summarize(v)
		}
	}
	return doc, sc.Err()
}

func load(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &doc, nil
}

func write(doc *Doc, path string) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// check compares pr's medians against base's and returns the regression
// report lines; a gated metric with fewer than minSamples samples on either
// side is reported too. A non-nil only set replaces the default gating
// policy entirely: exactly the listed units are gated, whether
// host-dependent or not.
func check(base, pr *Doc, tolerance float64, only map[string]bool) (bad, skipped []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		units := make([]string, 0, len(base.Benchmarks[name]))
		for u := range base.Benchmarks[name] {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			b := base.Benchmarks[name][unit]
			if only != nil {
				if !only[unit] {
					continue
				}
			} else if !gatedUnits[unit] {
				continue
			}
			p, ok := pr.Benchmarks[name][unit]
			if !ok {
				bad = append(bad, fmt.Sprintf("%s %s: missing from PR results", name, unit))
				continue
			}
			if b.N < minSamples || p.N < minSamples {
				bad = append(bad, fmt.Sprintf("%s %s: %d baseline and %d PR samples, the gate needs %d of each",
					name, unit, b.N, p.N, minSamples))
				continue
			}
			want, got := b.Median, p.Median
			if want == 0 {
				if got != 0 {
					bad = append(bad, fmt.Sprintf("%s %s: baseline 0, got %g", name, unit, got))
				}
				continue
			}
			// A regression is the metric getting worse: every gated metric
			// is a cost (relative overhead, cycles), so worse means larger.
			rel := got/want - 1
			if rel > tolerance {
				bad = append(bad, fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%% > %.0f%% tolerance)",
					name, unit, want, got, 100*rel, 100*tolerance))
			} else if math.Abs(rel) > tolerance {
				skipped = append(skipped, fmt.Sprintf("%s %s: %.4g -> %.4g (improved %.1f%%)",
					name, unit, want, got, -100*rel))
			}
		}
	}
	return bad, skipped
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark output to convert (default stdin)")
		out       = flag.String("out", "", "JSON output path (default stdout)")
		doCheck   = flag.Bool("check", false, "compare -pr against -baseline instead of converting")
		baseline  = flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON for -check")
		pr        = flag.String("pr", "BENCH_PR.json", "PR JSON for -check")
		tolerance = flag.Float64("tolerance", 0.10, "allowed relative regression for gated metrics")
		only      = flag.String("only", "", "comma-separated metric units: gate exactly these, replacing the default set")
	)
	flag.Parse()

	var onlyUnits map[string]bool
	if *only != "" {
		onlyUnits = map[string]bool{}
		for _, u := range strings.Split(*only, ",") {
			if u = strings.TrimSpace(u); u != "" {
				onlyUnits[u] = true
			}
		}
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if *doCheck {
		prDoc, err := load(*pr)
		if err != nil {
			fail(err)
		}
		base, err := load(*baseline)
		if err != nil {
			fail(err)
		}
		bad, improved := check(base, prDoc, *tolerance, onlyUnits)
		if len(bad) == 0 {
			fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline\n",
				len(base.Benchmarks), 100**tolerance)
		}
		for _, line := range improved {
			fmt.Println("note:", line)
		}
		if len(bad) > 0 {
			for _, line := range bad {
				fmt.Println("REGRESSION:", line)
			}
			os.Exit(1)
		}
		return
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	doc, err := parse(r)
	if err != nil {
		fail(err)
	}
	if len(doc.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark results found in input"))
	}
	if err := write(doc, *out); err != nil {
		fail(err)
	}
}
