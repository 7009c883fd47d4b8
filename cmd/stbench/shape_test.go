package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The shape claims EXPERIMENTS.md makes about the full-scale figures, held
// against results_full.txt (CI diffs that file against a fresh full-scale
// run, so it is the current output). Each claim carries a margin: the test
// fails once a number drifts within the margin of breaking the claim, not
// only after it breaks.
const (
	// fibKnapsackMargin: ST/Cilk must sit at least this far below parity
	// (fib at every p, knapsack at p=32 and p=50; today 0.880-0.934).
	fibKnapsackMargin = 0.05
	// fibOutlierMargin: fib's Figure 21 ST overhead must exceed every other
	// benchmark's by at least this much (today 2.600 vs magic's 1.800).
	fibOutlierMargin = 0.5
	// cpuOrderMargin: consecutive Figures 17-20 st averages in the order
	// mips > sparc > alpha > x86 must differ by at least this much (today
	// 1.169, 1.150, 1.126, 1.055).
	cpuOrderMargin = 0.01
)

// figureTable is one parsed figure: its column names and its rows.
type figureTable struct {
	cols []string
	rows map[string][]float64
}

// cell returns the value in row at column col.
func (f *figureTable) cell(row, col string) (float64, error) {
	vals, ok := f.rows[row]
	if !ok {
		return 0, fmt.Errorf("no row %q", row)
	}
	for i, c := range f.cols {
		if c == col && i < len(vals) {
			return vals[i], nil
		}
	}
	return 0, fmt.Errorf("row %q has no column %q", row, col)
}

// parseFigures reads every "Figure N: ..." table in stbench output, keyed
// by "Figure N". A table is its title line, a header line of column names
// and rows of a name followed by numbers; a blank line or another titled
// section ends it.
func parseFigures(text string) (map[string]*figureTable, error) {
	figs := map[string]*figureTable{}
	var cur *figureTable
	for n, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "Figure "):
			title, _, _ := strings.Cut(line, ":")
			cur = &figureTable{rows: map[string][]float64{}}
			figs[title] = cur
		case strings.TrimSpace(line) == "" || strings.Contains(line, ":"):
			cur = nil
		case cur == nil:
		case cur.cols == nil:
			cur.cols = strings.Fields(line)[1:]
		default:
			f := strings.Fields(line)
			vals := make([]float64, len(f)-1)
			for i, s := range f[1:] {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: %q is not a number", n+1, s)
				}
				vals[i] = v
			}
			cur.rows[f[0]] = vals
		}
	}
	return figs, nil
}

// shapeViolations checks EXPERIMENTS.md's shape claims against stbench
// output and returns one line per claim that does not hold.
func shapeViolations(text string) ([]string, error) {
	figs, err := parseFigures(text)
	if err != nil {
		return nil, err
	}
	fig := func(name string) (*figureTable, error) {
		if f := figs[name]; f != nil {
			return f, nil
		}
		return nil, fmt.Errorf("no %s table", name)
	}
	var bad []string

	f22, err := fig("Figure 22")
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		bench string
		ps    []string
	}{
		{"fib", f22.cols},
		{"knapsack", []string{"p=32", "p=50"}},
	} {
		for _, p := range c.ps {
			v, err := f22.cell(c.bench, p)
			if err != nil {
				return nil, err
			}
			if v > 1-fibKnapsackMargin {
				bad = append(bad, fmt.Sprintf("Figure 22 %s %s: ST/Cilk %.3f, want ≤ %.2f", c.bench, p, v, 1-fibKnapsackMargin))
			}
		}
	}

	f21, err := fig("Figure 21")
	if err != nil {
		return nil, err
	}
	fib, err := f21.cell("fib", "stackthreads")
	if err != nil {
		return nil, err
	}
	for bench := range f21.rows {
		if bench == "fib" {
			continue
		}
		v, err := f21.cell(bench, "stackthreads")
		if err != nil {
			return nil, err
		}
		if fib < v+fibOutlierMargin {
			bad = append(bad, fmt.Sprintf("Figure 21: fib ST %.3f is not %.1f above %s's %.3f", fib, fibOutlierMargin, bench, v))
		}
	}

	order := []struct{ cpu, fig string }{
		{"mips", "Figure 19"}, {"sparc", "Figure 17"}, {"alpha", "Figure 20"}, {"x86", "Figure 18"},
	}
	avg := make([]float64, len(order))
	for i, o := range order {
		f, err := fig(o.fig)
		if err != nil {
			return nil, err
		}
		if avg[i], err = f.cell("avg", "st"); err != nil {
			return nil, err
		}
		if i > 0 && avg[i-1] < avg[i]+cpuOrderMargin {
			bad = append(bad, fmt.Sprintf("st average %s %.3f is not %.2f above %s %.3f",
				order[i-1].cpu, avg[i-1], cpuOrderMargin, o.cpu, avg[i]))
		}
	}
	return bad, nil
}

// TestFullFigureShapes holds results_full.txt to EXPERIMENTS.md's shape
// claims: fib ST/Cilk below 1 at every p, knapsack's below 1 at p=32 and
// p=50, fib the largest Figure 21 ST overhead, and the st averages of
// Figures 17-20 ordered mips > sparc > alpha > x86.
func TestFullFigureShapes(t *testing.T) {
	text, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := shapeViolations(string(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestFigureShapesCatchBrokenClaims changes one cell of results_full.txt
// per claim and checks the claim's violation is reported.
func TestFigureShapesCatchBrokenClaims(t *testing.T) {
	text, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct{ old, new, want string }{
		{"fib             0.888    0.890    0.901", "fib             0.888    0.890    1.001", "Figure 22 fib p=32"},
		{"knapsack        0.975    1.021    0.934    0.880", "knapsack        0.975    1.021    0.934    0.960", "Figure 22 knapsack p=50"},
		{"magic               1.800", "magic               2.300", "Figure 21: fib ST 2.600 is not 0.5 above magic"},
		{"avg                 1.000          1.030          1.047          1.055", "avg                 1.000          1.030          1.047          1.120", "st average alpha 1.126 is not 0.01 above x86"},
	} {
		if !strings.Contains(string(text), m.old) {
			t.Fatalf("results_full.txt has no %q to change", m.old)
		}
		bad, err := shapeViolations(strings.Replace(string(text), m.old, m.new, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 1 || !strings.HasPrefix(bad[0], m.want) {
			t.Errorf("changing %q: violations %q, want one starting %q", m.old, bad, m.want)
		}
	}
}
