package obs_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
)

// observedRun executes one quick-scale app with a collector attached.
func observedRun(tb testing.TB, app string, mode core.Mode, workers int) *obs.Collector {
	tb.Helper()
	var w *apps.Workload
	if app == "pingpong" {
		w = apps.PingPong(100, apps.ST)
	} else {
		var err error
		if w, err = figures.Workload(app, figures.Quick, apps.ST); err != nil {
			tb.Fatal(err)
		}
	}
	col := obs.New()
	if _, err := core.Run(w, core.Config{Mode: mode, Workers: workers, Seed: 1, Obs: col}); err != nil {
		tb.Fatalf("%s: %v", app, err)
	}
	return col
}

// TestChromeTraceSweepMatchesReference renders real runs' event streams —
// every app × st/cilk × 1/2/4 workers — with both renderers and requires
// identical bytes.
func TestChromeTraceSweepMatchesReference(t *testing.T) {
	for _, app := range append(append([]string(nil), figures.BenchNames...), "pingpong") {
		for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
			for _, workers := range []int{1, 2, 4} {
				col := observedRun(t, app, mode, workers)
				var got, want bytes.Buffer
				if err := col.WriteChromeTrace(&got); err != nil {
					t.Fatal(err)
				}
				if err := obs.ReferenceChromeTrace(col, &want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s %v workers=%d: trace (%d bytes) differs from reference (%d bytes)",
						app, mode, workers, got.Len(), want.Len())
				}
			}
		}
	}
}

// BenchmarkWriteChromeTrace measures one export of a quick 4-worker run,
// next to the encoding/json reference it replaced.
func BenchmarkWriteChromeTrace(b *testing.B) {
	for _, app := range []string{"fib", "lu"} {
		col := observedRun(b, app, core.StackThreads, 4)
		for _, r := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{"direct", col.WriteChromeTrace},
			{"reference", func(w io.Writer) error { return obs.ReferenceChromeTrace(col, w) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", app, r.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := r.write(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
