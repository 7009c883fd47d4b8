package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/figures"
)

// acceptedApps lists every app name serving accepts.
func acceptedApps() []string {
	return append(append([]string(nil), figures.BenchNames...), "pingpong")
}

// TestNormalizedBuildsNoWorkload pins the pre-admission validation cost:
// normalizing a request checks the app by name and builds nothing, so it
// stays a few dozen allocations at every scale. Building the workload
// (full-scale fft computes a 4096-point reference DFT) is execution's job.
func TestNormalizedBuildsNoWorkload(t *testing.T) {
	// The cpu check (isa.CostModelByName) builds only the named cost model,
	// so normalizing is a handful of allocations; building any app's
	// workload costs over 120.
	const maxAllocs = 16
	for _, app := range acceptedApps() {
		for _, full := range []bool{false, true} {
			req := JobRequest{App: app, Full: full, Workers: 4, Seed: 3}
			var err error
			allocs := testing.AllocsPerRun(3, func() { _, err = req.Normalized() })
			if err != nil {
				t.Fatalf("%s full=%t: %v", app, full, err)
			}
			if allocs > maxAllocs {
				t.Errorf("%s full=%t: Normalized allocates %.0f times, want <= %d", app, full, allocs, maxAllocs)
			}
		}
	}
}

// TestNormalizeAcceptsOnlyBuildableApps is the drift check between
// validation and execution: every name normalize accepts must build (and
// compile) through the same path ExecuteOpts uses, every catalog name must
// be accepted, and a rejected name gets the catalog's error text.
func TestNormalizeAcceptsOnlyBuildableApps(t *testing.T) {
	candidates := append(acceptedApps(), "", "FIB", "nqueens", "treeadd", "staircase", "no-such-benchmark")
	accepted := map[string]bool{}
	for _, app := range candidates {
		for _, mode := range []string{"seq", "st", "cilk"} {
			req, err := JobRequest{App: app, Mode: mode}.Normalized()
			if err != nil {
				if want := fmt.Sprintf("figures: unknown benchmark %q", app); err.Error() != want {
					t.Errorf("%q/%s: error %q, want %q", app, mode, err, want)
				}
				continue
			}
			accepted[app] = true
			w, err := req.workload()
			if err != nil {
				t.Fatalf("%q/%s: accepted but does not build: %v", app, mode, err)
			}
			if _, err := w.Compile(); err != nil {
				t.Fatalf("%q/%s: accepted but does not compile: %v", app, mode, err)
			}
		}
	}
	for _, app := range acceptedApps() {
		if !accepted[app] {
			t.Errorf("%q rejected", app)
		}
	}
	if len(accepted) != len(acceptedApps()) {
		t.Errorf("accepted %d names, want exactly %d", len(accepted), len(acceptedApps()))
	}
}

// TestUnknownAppRejectedOverHTTP: an unknown app is a 400 carrying the
// catalog's error text, and the request is never admitted.
func TestUnknownAppRejectedOverHTTP(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(JobRequest{App: "no-such-benchmark", Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ev ErrorView
	err = json.NewDecoder(resp.Body).Decode(&ev)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if want := `figures: unknown benchmark "no-such-benchmark"`; ev.Error != want {
		t.Fatalf("error %q, want %q", ev.Error, want)
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("rejected request was admitted: accepted = %d", st.Accepted)
	}
}
