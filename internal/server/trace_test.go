package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// postJob submits a request through the HTTP API with an optional trace
// header and decodes the JobView response.
func postJob(t *testing.T, ts *httptest.Server, traceID string, req JobRequest) (JobView, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		hr.Header.Set(TraceHeader, traceID)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v, resp
}

// TestTraceIDPropagation proves the end-to-end join: a client-minted trace
// id rides the X-Trace-Id header through admission, lands on every host
// span, and comes back on both the response header and the JobView. Absent
// or malformed ids get a server-minted one.
func TestTraceIDPropagation(t *testing.T) {
	s := New(Config{HostProcs: 1, HostSpans: obs.NewHostRecorder(0)})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, resp := postJob(t, ts, "cli-42", JobRequest{App: "fib", Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if v.TraceID != "cli-42" {
		t.Fatalf("JobView trace id %q, want cli-42", v.TraceID)
	}
	if got := resp.Header.Get(TraceHeader); got != "cli-42" {
		t.Fatalf("response %s = %q, want cli-42", TraceHeader, got)
	}
	if len(v.HostSpans) == 0 {
		t.Fatal("terminal job carries no host spans")
	}
	names := map[string]bool{}
	for _, sp := range v.HostSpans {
		names[sp.Name] = true
		if sp.TraceID != "cli-42" {
			t.Fatalf("span %q carries trace id %q, want cli-42", sp.Name, sp.TraceID)
		}
		if sp.Job != v.ID {
			t.Fatalf("span %q carries job %q, want %s", sp.Name, sp.Job, v.ID)
		}
	}
	for _, want := range []string{"enqueue-wait", "cache-probe", "execute"} {
		if !names[want] {
			t.Fatalf("missing %q span (got %v)", want, names)
		}
	}
	// The server-wide recorder mirrors the job's spans.
	var mirrored int
	for _, sp := range s.HostSpans().Spans() {
		if sp.TraceID == "cli-42" {
			mirrored++
		}
	}
	if mirrored < len(v.HostSpans) {
		t.Fatalf("recorder mirrored %d spans, job has %d", mirrored, len(v.HostSpans))
	}

	// GET echoes the id too.
	gresp, err := ts.Client().Get(ts.URL + "/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if got := gresp.Header.Get(TraceHeader); got != "cli-42" {
		t.Fatalf("GET %s = %q, want cli-42", TraceHeader, got)
	}

	// No header: the server mints an id.
	v2, resp2 := postJob(t, ts, "", JobRequest{App: "fib", Seed: 2, Wait: true})
	if v2.TraceID == "" || !strings.HasPrefix(v2.TraceID, "t-") {
		t.Fatalf("minted trace id %q, want t-<n>", v2.TraceID)
	}
	if got := resp2.Header.Get(TraceHeader); got != v2.TraceID {
		t.Fatalf("minted id not echoed: header %q, view %q", got, v2.TraceID)
	}

	// Malformed header (legal HTTP value, illegal trace id): treated as
	// absent — a minted id replaces it.
	v3, _ := postJob(t, ts, "bad id!{};", JobRequest{App: "fib", Seed: 3, Wait: true})
	if !strings.HasPrefix(v3.TraceID, "t-") {
		t.Fatalf("malformed client id accepted: %q", v3.TraceID)
	}
}

// TestTwoClockTraceMergesHostAndVirtual is the acceptance check at package
// level: one job's host serving spans and its deterministic virtual-time
// trace merge into a single Chrome trace file where both clock domains
// carry the same trace id.
func TestTwoClockTraceMergesHostAndVirtual(t *testing.T) {
	s := New(Config{HostProcs: 1, HostSpans: obs.NewHostRecorder(0)})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, "t-join", JobRequest{App: "fib", Trace: true, Wait: true})
	if v.State != StateDone {
		t.Fatalf("job state %q (%s)", v.State, v.Error)
	}
	if len(v.Trace) == 0 || len(v.HostSpans) == 0 {
		t.Fatalf("missing artifacts: trace %d bytes, %d host spans", len(v.Trace), len(v.HostSpans))
	}

	var buf bytes.Buffer
	err := obs.WriteTwoClockTrace(&buf, v.HostSpans, []obs.JobTrace{
		{TraceID: v.TraceID, Job: v.ID, Trace: v.Trace},
	})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}

	var merged struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &merged); err != nil {
		t.Fatalf("merged file is not valid JSON: %v", err)
	}
	var hostExec, virtWork bool
	for _, ev := range merged.TraceEvents {
		tid, _ := ev.Args["trace_id"].(string)
		if ev.Pid == 0 && ev.Name == "execute" && tid == "t-join" {
			hostExec = true
		}
		if ev.Pid == 1 && ev.Ph != "M" {
			virtWork = true
		}
		if ev.Pid == 1 && ev.Name == "process_name" && tid != "t-join" {
			t.Fatalf("virtual process metadata lost the trace id: %v", ev.Args)
		}
	}
	if !hostExec {
		t.Fatal("merged trace has no host-clock execute span for t-join")
	}
	if !virtWork {
		t.Fatal("merged trace has no virtual-clock events on pid 1")
	}
}

// TestDebugJobsReportsBreakerState drives the breaker open with watchdog
// trips (the hardening tests' idiom) and reads the state back through
// GET /debug/jobs.
func TestDebugJobsReportsBreakerState(t *testing.T) {
	s := New(Config{
		HostProcs:        1,
		Watchdog:         10 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerWindow:    time.Hour,
		BreakerCooldown:  time.Hour,
	})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	debug := func() DebugView {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/debug/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v DebugView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	if v := debug(); v.Breaker != "closed" {
		t.Fatalf("initial breaker %q, want closed", v.Breaker)
	}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobRequest{App: "fib", Full: true, Workers: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitTerminal(t, j)
	}
	v := debug()
	if v.Breaker != "open" {
		t.Fatalf("breaker %q after two watchdog trips, want open", v.Breaker)
	}
	if v.Draining {
		t.Fatal("debug view claims draining on a live server")
	}
}

// TestDebugJobsShowsLivePhaseAndProgress catches a long-running job
// mid-flight: /debug/jobs must show it in the execute phase with live
// virtual-cycle progress before it is canceled.
func TestDebugJobsShowsLivePhaseAndProgress(t *testing.T) {
	s := New(Config{HostProcs: 1})
	defer s.Drain()

	// The paper-scale suspension kernel runs long enough to observe.
	j, err := s.Submit(JobRequest{App: "pingpong", Full: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var seen DebugJobView
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job never showed live progress; last view %+v", seen)
		}
		v := s.DebugSnapshot()
		if len(v.Jobs) == 1 {
			seen = v.Jobs[0]
			if seen.Phase == "execute" && seen.WorkCycles > 0 && seen.Picks > 0 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if seen.ID != j.ID || seen.TraceID != j.TraceID() {
		t.Fatalf("debug job identity %+v does not match submitted job %s/%s", seen, j.ID, j.TraceID())
	}
	if seen.AgeUs <= 0 {
		t.Fatalf("live job age %d, want > 0", seen.AgeUs)
	}
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if v := s.DebugSnapshot(); len(v.Jobs) != 0 {
		t.Fatalf("terminal job still listed live: %+v", v.Jobs)
	}
}

// TestHealthzDuringDrain pins the drain semantics clients depend on: the
// draining flag flips to true while accepted jobs are still finishing —
// before the listener would be closed — so load balancers stop routing new
// work while in-flight waiters still get responses.
func TestHealthzDuringDrain(t *testing.T) {
	s := New(Config{HostProcs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := func() (ok, draining bool) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			OK       bool `json:"ok"`
			Draining bool `json:"draining"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.OK, v.Draining
	}

	if ok, draining := health(); !ok || draining {
		t.Fatalf("fresh server healthz = (%t, %t), want (true, false)", ok, draining)
	}

	// Hold the drain open with a long-running job, then start draining.
	j, err := s.Submit(JobRequest{App: "pingpong", Full: true})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()

	// The flag must flip while the job is still in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, draining := health()
		if !ok {
			t.Fatal("healthz ok flipped false during drain")
		}
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining flag never flipped while a job held the drain open")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("drain finished with an accepted job still live")
	default:
	}
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain hung after the held job was canceled")
	}
	if ok, draining := health(); !ok || !draining {
		t.Fatalf("post-drain healthz = (%t, %t), want (true, true)", ok, draining)
	}
}

// TestServingEndpointHeaders pins the response headers on the point-in-time
// endpoints: explicit content types, and no-store so nothing between the
// scraper and the server caches a snapshot.
func TestServingEndpointHeaders(t *testing.T) {
	s := New(Config{HostProcs: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for _, tc := range []struct {
		path string
		ct   string
	}{
		{"/metrics", "application/json"},
		{"/metrics?format=prom", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/jobs", "application/json"},
		{"/healthz", "application/json"},
	} {
		resp := get(tc.path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.ct {
			t.Fatalf("%s: Content-Type %q, want %q", tc.path, got, tc.ct)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Fatalf("%s: Cache-Control %q, want no-store", tc.path, got)
		}
	}
}

// TestPrometheusEndpointLints runs jobs, scrapes /metrics?format=prom and
// feeds the body through the exposition validator — the same check the CI
// smoke applies.
func TestPrometheusEndpointLints(t *testing.T) {
	s := New(Config{HostProcs: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for seed := uint64(1); seed <= 2; seed++ {
		v, _ := postJob(t, ts, "", JobRequest{App: "fib", Seed: seed, Wait: true})
		if v.State != StateDone {
			t.Fatalf("job state %q", v.State)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	for _, want := range []string{"st_jobs_accepted_total", "st_queue_wait_us_bucket", "st_chain_epochs"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestServedJobRunsOnBatchedTier: served jobs always carry an obs
// collector, and that must not send them to the per-instruction reference
// tier. A single-worker fib job on the sequential engine reports a nonzero
// batched-tier share of its work cycles in the contention snapshot, the
// metrics JSON and the Prometheus exposition.
func TestServedJobRunsOnBatchedTier(t *testing.T) {
	s := New(Config{HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, "", JobRequest{App: "fib", Workers: 1, Seed: 1, Engine: "sequential", Wait: true})
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job state %q (%s)", v.State, v.Error)
	}
	batched := s.DebugSnapshot().Contention.BatchedCycles
	if batched <= 0 || batched > v.Result.WorkCycles {
		t.Fatalf("batched-tier cycles = %d of %d work cycles, want a share in (0, 1]", batched, v.Result.WorkCycles)
	}
	t.Logf("batched-tier share: %d/%d = %.2f", batched, v.Result.WorkCycles, float64(batched)/float64(v.Result.WorkCycles))

	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Gauges["tier_batched_vcycles"]; got != batched {
		t.Fatalf("metrics JSON tier_batched_vcycles = %d, want %d", got, batched)
	}
	prom := get("/metrics?format=prom")
	if err := obs.CheckExposition(bytes.NewReader(prom)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, prom)
	}
	if want := fmt.Sprintf("st_tier_batched_vcycles %d\n", batched); !bytes.Contains(prom, []byte(want)) {
		t.Fatalf("exposition missing %q:\n%s", want, prom)
	}
}

// TestTracingDoesNotPerturbArtifacts is the determinism boundary at the
// serving layer: the same tuple run on a fully instrumented server (span
// recorder + structured logging) and on a bare one yields byte-identical
// deterministic artifacts.
func TestTracingDoesNotPerturbArtifacts(t *testing.T) {
	req := JobRequest{App: "fib", Workers: 4, Seed: 7, Engine: "throughput"}

	run := func(cfg Config) *JobOutput {
		t.Helper()
		s := New(cfg)
		defer s.Drain()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("state %q (%s)", st, jobErr(s, j))
		}
		return jobOut(s, j)
	}

	var logBuf bytes.Buffer
	instrumented := run(Config{
		HostProcs: 2,
		HostSpans: obs.NewHostRecorder(0),
		Log:       slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	bare := run(Config{HostProcs: 2})
	if err := sameOutput(instrumented, bare); err != nil {
		t.Fatalf("instrumentation changed a deterministic artifact: %v", err)
	}
	if logBuf.Len() == 0 {
		t.Fatal("structured logger saw no events")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte(`"trace_id"`)) {
		t.Fatalf("log records carry no trace_id:\n%s", logBuf.Bytes())
	}
}
