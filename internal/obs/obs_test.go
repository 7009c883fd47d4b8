package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestPhaseStrings(t *testing.T) {
	want := []string{
		"user", "epilogue-check", "suspend-unwind", "restart-patch",
		"stack-mgmt", "steal-request", "steal-handshake", "poll", "idle",
	}
	if int(NumPhases) != len(want) {
		t.Fatalf("NumPhases = %d, want %d", NumPhases, len(want))
	}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p, want[p])
		}
	}
}

func TestChargeAndResidual(t *testing.T) {
	c := New()
	o := c.Worker(0)
	o.Charge(PhaseSuspend, 40)
	o.Charge(PhaseIdle, 10)
	if got := o.AttributedTotal(); got != 50 {
		t.Fatalf("AttributedTotal = %d, want 50", got)
	}
	c.FinishWorker(0, 200)
	totals := c.PhaseTotals()
	if totals[PhaseUser] != 150 || totals[PhaseSuspend] != 40 || totals[PhaseIdle] != 10 {
		t.Fatalf("totals = %v", totals)
	}
	var sum int64
	for _, v := range totals {
		sum += v
	}
	if sum != 200 || c.TotalCycles() != 200 {
		t.Fatalf("sum = %d, TotalCycles = %d, want 200", sum, c.TotalCycles())
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	// Every hook the runtime calls must be a no-op on a nil collector.
	c.Attach(nil)
	c.Instant(1, 0, "x")
	c.Span(1, 2, 0, "y")
	c.CounterSample(1, 0, "z", 3)
	c.SetMakespan(9)
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v   int64
		bkt int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bkt {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bkt)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
	if h.Min() != -5 || h.Max() != math.MaxInt64 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("steals").Add(7)
		r.Counter("attempts").Add(9)
		r.Gauge("workers").Set(4)
		r.Gauge("hw").Max(100)
		r.Gauge("hw").Max(50) // Max keeps the larger value
		h := r.Histogram("lat")
		for _, v := range []int64{1, 5, 5, 300, 0} {
			h.Observe(v)
		}
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if snap.Counters["steals"] != 7 || snap.Gauges["workers"] != 4 || snap.Gauges["hw"] != 100 {
		t.Fatalf("snapshot content wrong: %+v", snap)
	}
	lat := snap.Histograms["lat"]
	if lat.Count != 5 || lat.Sum != 311 || lat.Min != 0 || lat.Max != 300 {
		t.Fatalf("hist snapshot wrong: %+v", lat)
	}
	var n int64
	for _, b := range lat.Bkts {
		if b.N == 0 {
			t.Errorf("empty bucket le=%d emitted", b.Le)
		}
		n += b.N
	}
	if n != lat.Count {
		t.Fatalf("bucket counts sum to %d, want %d", n, lat.Count)
	}
}

func TestProfileOrderingDeterministic(t *testing.T) {
	c := New()
	// Without a program, AddSample must be a safe no-op; with accumulators
	// installed through ImportState we can still check the ordering contract.
	c.Worker(0).AddSample(1, []int64{10})
	if err := c.ImportState(&CollectorState{
		SamplePeriod: DefaultSamplePeriod,
		Flat:         []NamedValue{{"b", 50}, {"a", 50}, {"z", 90}},
		Cum:          []NamedValue{{"b", 80}, {"a", 60}, {"z", 90}, {"only-cum", 5}},
	}); err != nil {
		t.Fatal(err)
	}
	p := c.Profile()
	got := make([]string, len(p))
	for i, r := range p {
		got[i] = r.Name
	}
	want := []string{"z", "a", "b", "only-cum"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("profile order = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	c.WriteTop(&buf, 2)
	out := buf.String()
	if !strings.Contains(out, "z") || strings.Contains(out, "only-cum") {
		t.Fatalf("WriteTop(2) wrong:\n%s", out)
	}
}

// chromeSchema mirrors the required fields of the Chrome trace_event "JSON
// Object Format": a traceEvents array whose entries carry name/ph/ts/pid/tid.
type chromeSchema struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   *int64          `json:"ts"`
		Dur  int64           `json:"dur"`
		Pid  *int            `json:"pid"`
		Tid  *int            `json:"tid"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestChromeTraceSchema checks the exporter against the trace_event schema:
// the output is valid JSON with a traceEvents array, every event has a
// name, a known phase letter, a timestamp and pid/tid, complete ('X') events
// have a positive duration, and instants carry a scope.
func TestChromeTraceSchema(t *testing.T) {
	c := New()
	c.Instant(10, 0, "steal", Arg{K: "victim", V: 1})
	c.Span(20, 35, 1, "suspend", Arg{K: "frames", V: 2})
	c.Span(40, 40, 1, "restart") // zero-length span must clamp to dur 1
	c.CounterSample(50, 0, "readyq", 3)
	c.Worker(2) // worker with no events still gets a thread_name record

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tr chromeSchema
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	// metadata (process + 3 workers) + 4 events
	if len(tr.TraceEvents) != 8 {
		t.Fatalf("got %d trace events, want 8", len(tr.TraceEvents))
	}
	phases := map[string]int{}
	for i, e := range tr.TraceEvents {
		if e.Name == "" {
			t.Errorf("event %d: empty name", i)
		}
		switch e.Ph {
		case "M", "X", "i", "C":
		default:
			t.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Errorf("event %d (%s): missing ts/pid/tid", i, e.Name)
		}
		if e.Ph == "X" && e.Dur < 1 {
			t.Errorf("event %d (%s): complete event with dur %d", i, e.Name, e.Dur)
		}
		if e.Ph == "i" && e.S == "" {
			t.Errorf("event %d (%s): instant without scope", i, e.Name)
		}
		if e.Ph == "M" && len(e.Args) == 0 {
			t.Errorf("event %d (%s): metadata without args", i, e.Name)
		}
		phases[e.Ph]++
	}
	if phases["M"] != 4 || phases["i"] != 1 || phases["X"] != 2 || phases["C"] != 1 {
		t.Fatalf("phase counts = %v", phases)
	}
	// Chrome's loader requires monotone-friendly integer timestamps; spot
	// check the counter event kept its value in args.
	var counterSeen bool
	for _, e := range tr.TraceEvents {
		if e.Ph == "C" && e.Name == "readyq" {
			var args map[string]int64
			if err := json.Unmarshal(e.Args, &args); err != nil || args["readyq"] != 3 {
				t.Fatalf("counter args = %s (err %v)", e.Args, err)
			}
			counterSeen = true
		}
	}
	if !counterSeen {
		t.Fatal("counter event missing")
	}
}

func TestWriteReportSumsAndUtilization(t *testing.T) {
	c := New()
	o := c.Worker(0)
	o.Charge(PhaseIdle, 25)
	c.FinishWorker(0, 100)
	c.SetMakespan(100)
	var buf bytes.Buffer
	c.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"total work 100 cycles", "idle", "w0", " 75 ", " 75.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestProfileAccumulation pins the profiler's attribution rules: the leaf
// procedure gets flat cycles, every procedure on the stack gets cumulative
// cycles exactly once per sample however often it recurs, pcs outside any
// procedure are skipped, and the accumulators survive an export/import
// round trip into a collector that keeps sampling.
func TestProfileAccumulation(t *testing.T) {
	prog := &isa.Program{Descs: []*isa.Desc{
		{Name: "fib", Entry: 0, End: 10},
		{Name: "main", Entry: 10, End: 20},
	}}
	p := int64(DefaultSamplePeriod)
	c := New()
	c.Attach(prog)
	w := c.Worker(0)
	w.AddSample(1, []int64{3, 5, 5, 12}) // fib recursing under main
	w.AddSample(2, []int64{12, 99})      // main; 99 is outside every procedure
	want := []ProcProfile{{Name: "main", Flat: 2 * p, Cum: 3 * p}, {Name: "fib", Flat: p, Cum: p}}
	if got := c.Profile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile = %+v, want %+v", got, want)
	}

	r := New()
	if err := r.ImportState(c.ExportState()); err != nil {
		t.Fatal(err)
	}
	if got := r.Profile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported profile = %+v, want %+v", got, want)
	}
	r.Attach(prog)
	r.Worker(0).AddSample(1, []int64{7, 7, 15})
	want = []ProcProfile{{Name: "fib", Flat: 2 * p, Cum: 2 * p}, {Name: "main", Flat: 2 * p, Cum: 4 * p}}
	if got := r.Profile(); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile after resumed sampling = %+v, want %+v", got, want)
	}
}
