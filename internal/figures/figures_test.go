package figures_test

import (
	"io"
	"os"
	"repro/internal/apps"
	"testing"

	"repro/internal/figures"
	"repro/internal/isa"
)

func out(t *testing.T) io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func TestSpecFigures(t *testing.T) {
	for _, cpu := range isa.CostModels() {
		rows, err := figures.SpecOverheadsWith(out(t), cpu, figures.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 8 {
			t.Fatalf("%s: %d benchmarks, want 8", cpu.Name, len(rows))
		}
	}
}

func TestFig21QuickShape(t *testing.T) {
	rows, err := figures.UniprocessorWith(out(t), figures.Quick, figures.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var fibST float64
	for _, r := range rows {
		if r.STRel() < 0.9 {
			t.Errorf("%s: StackThreads faster than sequential C (%.3f) — suspicious", r.Bench, r.STRel())
		}
		if r.STRel() > 6 || r.CilkRel() > 6 {
			t.Errorf("%s: overhead out of band (st=%.2f cilk=%.2f)", r.Bench, r.STRel(), r.CilkRel())
		}
		if r.Bench == "fib" {
			fibST = r.STRel()
		}
		// Figure 21's key claim: except for fib, both systems are close
		// to sequential C.
		if r.Bench != "fib" && r.Bench != "li" && r.STRel() > 2.0 {
			t.Errorf("%s: StackThreads overhead %.2f, want < 2.0 for coarse-grain apps", r.Bench, r.STRel())
		}
	}
	// fib is the extreme fine-grain case: it must show the largest overhead.
	for _, r := range rows {
		if r.Bench != "fib" && r.STRel() > fibST {
			t.Errorf("%s ST overhead (%.2f) exceeds fib's (%.2f); fib should be worst", r.Bench, r.STRel(), fibST)
		}
	}
}

func TestFig22QuickShape(t *testing.T) {
	rows, err := figures.ScalingWith(out(t), figures.Quick, []string{"fib", "cilksort", "knapsack"}, figures.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i := range figures.ScalingWorkers {
			if ratio := r.Ratio(i); ratio < 0.2 || ratio > 5 {
				t.Errorf("%s p=%d: ST/Cilk ratio %.2f wildly off", r.Bench, figures.ScalingWorkers[i], ratio)
			}
		}
	}
}

// TestWorkloadCatalog: every benchmark must build at both scales in both
// variants, and unknown names must error.
func TestWorkloadCatalog(t *testing.T) {
	for _, name := range figures.BenchNames {
		for _, sc := range []figures.Scale{figures.Quick, figures.Full} {
			for _, v := range []apps.Variant{apps.Seq, apps.ST} {
				w, err := figures.Workload(name, sc, v)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", name, sc, v, err)
				}
				if _, err := w.Compile(); err != nil {
					t.Fatalf("%s/%v/%v compile: %v", name, sc, v, err)
				}
			}
		}
	}
	if _, err := figures.Workload("nope", figures.Quick, apps.ST); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestCheckNameMatchesWorkload: CheckName accepts exactly the names
// Workload builds — the figure benchmarks plus the pingpong kernel — and
// rejects the rest with Workload's own error.
func TestCheckNameMatchesWorkload(t *testing.T) {
	for _, name := range append([]string{"pingpong"}, figures.BenchNames...) {
		if err := figures.CheckName(name); err != nil {
			t.Errorf("CheckName(%q) = %v", name, err)
		}
		if _, err := figures.Workload(name, figures.Quick, apps.ST); err != nil {
			t.Errorf("Workload(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"nope", "", "FIB", "PingPong"} {
		_, werr := figures.Workload(name, figures.Quick, apps.ST)
		cerr := figures.CheckName(name)
		if werr == nil || cerr == nil || werr.Error() != cerr.Error() {
			t.Errorf("%q: Workload err %v, CheckName err %v", name, werr, cerr)
		}
	}
	if got, want := figures.CheckName("nope").Error(), `figures: unknown benchmark "nope"`; got != want {
		t.Errorf("error text %q, want %q", got, want)
	}
}

// TestSpecFigureNumbers pins the figure numbering.
func TestSpecFigureNumbers(t *testing.T) {
	want := map[string]int{"sparc": 17, "x86": 18, "mips": 19, "alpha": 20, "vax": 0}
	for cpu, n := range want {
		if got := figures.SpecFigure(cpu); got != n {
			t.Fatalf("SpecFigure(%s) = %d, want %d", cpu, got, n)
		}
	}
}
