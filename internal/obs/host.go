package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the host-time half of the observability layer. Everything in
// it measures the *machine* the simulation runs on — wall-clock queue
// waits, cache probes, executor runtimes, client backoffs — and is
// therefore explicitly OUTSIDE every determinism contract: host spans never
// appear in a run's deterministic artifacts (Result, metrics snapshot,
// phase report, virtual-time Chrome trace), they ride alongside them in
// clearly separated sections (JobView.HostSpans, /debug/jobs, the two-clock
// trace's host track group). The virtual-time half lives in obs.go; the
// two meet only in WriteTwoClockTrace, where the clocks stay on separate
// track groups joined by trace_id.

// HostSpan is one host-time measurement: a span (Dur > 0) or an instant
// (Dur == 0) on the host clock, tagged with the request's trace id and the
// job it belongs to. Times are Unix microseconds so spans recorded by
// different processes on the same machine (client and server) share a
// timebase.
type HostSpan struct {
	// TraceID joins the span to a request's end-to-end trace; empty for
	// spans that belong to no single request (e.g. a server drain).
	TraceID string `json:"trace_id,omitempty"`
	// Job is the server-side job id, when the span belongs to one.
	Job string `json:"job,omitempty"`
	// Name labels the span ("enqueue-wait", "cache-probe", "execute",
	// "retry-backoff", "drain", ...).
	Name string `json:"name"`
	// Start is the span's start in Unix microseconds; Dur its length in
	// microseconds (0 for instants).
	Start int64 `json:"start_unix_us"`
	Dur   int64 `json:"dur_us"`
	Args  []Arg `json:"args,omitempty"`
}

// End returns the span's end time in Unix microseconds.
func (s HostSpan) End() int64 { return s.Start + s.Dur }

// DefaultHostSpanBound is a HostRecorder's default ring capacity.
const DefaultHostSpanBound = 4096

// HostRecorder collects host-time spans into a bounded ring: when the ring
// is full the oldest span is overwritten (recent activity is what live
// introspection wants) and the overwrite is counted — a truncated record
// never masquerades as a complete one. A nil *HostRecorder is a valid,
// always-disabled recorder: every method is a cheap no-op, mirroring the
// nil-*Collector discipline of the virtual-time half.
type HostRecorder struct {
	mu          sync.Mutex
	bound       int
	ring        []HostSpan
	next        int // write index
	n           int // spans currently held (<= bound)
	overwritten atomic.Int64
}

// NewHostRecorder creates a recorder holding at most bound spans
// (DefaultHostSpanBound when bound <= 0).
func NewHostRecorder(bound int) *HostRecorder {
	if bound <= 0 {
		bound = DefaultHostSpanBound
	}
	return &HostRecorder{bound: bound, ring: make([]HostSpan, bound)}
}

// Record appends one span, overwriting the oldest when the ring is full.
func (r *HostRecorder) Record(s HostSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.next] = s
	r.next = (r.next + 1) % r.bound
	if r.n < r.bound {
		r.n++
	} else {
		r.overwritten.Add(1)
	}
	r.mu.Unlock()
}

// Span records a host-time span from start to end.
func (r *HostRecorder) Span(traceID, job, name string, start, end time.Time, args ...Arg) {
	if r == nil {
		return
	}
	d := end.Sub(start).Microseconds()
	if d < 0 {
		d = 0
	}
	r.Record(HostSpan{TraceID: traceID, Job: job, Name: name,
		Start: start.UnixMicro(), Dur: d, Args: args})
}

// Instant records a zero-duration host-time event.
func (r *HostRecorder) Instant(traceID, job, name string, at time.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.Record(HostSpan{TraceID: traceID, Job: job, Name: name, Start: at.UnixMicro(), Args: args})
}

// Spans returns a copy of the held spans, oldest first.
func (r *HostRecorder) Spans() []HostSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]HostSpan, 0, r.n)
	start := (r.next - r.n + r.bound) % r.bound
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%r.bound])
	}
	return out
}

// Overwritten reports how many spans the ring has dropped to make room —
// nonzero means Spans() is a suffix of the true record, not all of it.
func (r *HostRecorder) Overwritten() int64 {
	if r == nil {
		return 0
	}
	return r.overwritten.Load()
}

// Progress is a live, host-visible view of one run's advancement, updated
// by the scheduler at pick boundaries when attached via the run config.
// Reading it from another goroutine (the /debug/jobs endpoint) is safe and
// never perturbs the run: the scheduler only stores, and a nil *Progress
// disables the stores entirely.
type Progress struct {
	// WorkCycles is the run's total work (summed worker cycle counters) as
	// of the most recent scheduler pick.
	WorkCycles atomic.Int64
	// Picks counts scheduler pick boundaries visited so far.
	Picks atomic.Int64
}

// JobTrace pairs a job's identifiers with its deterministic virtual-time
// Chrome trace (the bytes WriteChromeTrace produced), for merging into a
// two-clock trace.
type JobTrace struct {
	TraceID string
	Job     string
	// Trace is the virtual-time Chrome trace JSON.
	Trace []byte
}

// chromeEvent is one trace_event entry in the Chrome/Perfetto JSON schema
// (the "JSON Array Format" with a traceEvents wrapper). The two-clock merge
// parses job traces into it and re-encodes them with encoding/json.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Meta            chromeMeta    `json:"metadata"`
}

type chromeMeta struct {
	Tool  string `json:"tool"`
	Note  string `json:"note"`
	Cycle string `json:"cycle-unit"`
}

// WriteTwoClockTrace renders host-time spans and per-job virtual-time
// traces as a single Chrome trace_event file with two clock domains kept on
// separate track groups:
//
//   - pid 0 is the host clock: one thread track per trace id, timestamps in
//     microseconds since the earliest host span.
//   - pid 1+k is job k's virtual clock: the job's deterministic trace
//     re-emitted unchanged (1 virtual cycle = 1µs of trace time), with the
//     process named after the job and its trace id.
//
// The two groups are correlated by trace_id — it appears in every host
// span's args and in each virtual process's name and metadata — never by
// timestamp: the clocks are incommensurable by design, and the merged file
// is host data, outside every determinism contract.
func WriteTwoClockTrace(w io.Writer, host []HostSpan, jobs []JobTrace) error {
	var epoch int64 = -1
	for _, s := range host {
		if epoch < 0 || s.Start < epoch {
			epoch = s.Start
		}
	}
	if epoch < 0 {
		epoch = 0
	}

	// Assign one host thread track per trace id, in order of first use, so
	// every request's client and server spans share a lane.
	tids := map[string]int{}
	tidOf := func(traceID string) int {
		id, ok := tids[traceID]
		if !ok {
			id = len(tids)
			tids[traceID] = id
		}
		return id
	}
	sorted := append([]HostSpan(nil), host...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })

	evs := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "host clock (wall µs)"},
	}}
	var spanEvs []chromeEvent
	for _, s := range sorted {
		tid := tidOf(s.TraceID)
		ce := chromeEvent{Name: s.Name, Ts: s.Start - epoch, Pid: 0, Tid: tid}
		if s.Dur > 0 {
			ce.Ph, ce.Dur = "X", s.Dur
		} else {
			ce.Ph, ce.S = "i", "t"
		}
		ce.Args = map[string]any{"trace_id": s.TraceID}
		if s.Job != "" {
			ce.Args["job"] = s.Job
		}
		for _, a := range s.Args {
			ce.Args[a.K] = a.V
		}
		spanEvs = append(spanEvs, ce)
	}
	for traceID, tid := range tids {
		name := traceID
		if name == "" {
			name = "(untraced)"
		}
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	// Metadata first (sorted for a stable file), then the spans themselves.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Tid < evs[j].Tid })
	evs = append(evs, spanEvs...)

	for k, jt := range jobs {
		var parsed chromeTrace
		if err := json.Unmarshal(jt.Trace, &parsed); err != nil {
			return fmt.Errorf("obs: two-clock merge: job %s trace: %w", jt.Job, err)
		}
		pid := 1 + k
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{
				"name":     fmt.Sprintf("virtual clock: %s [%s]", jt.Job, jt.TraceID),
				"trace_id": jt.TraceID,
				"job":      jt.Job,
			},
		})
		for _, ce := range parsed.TraceEvents {
			if ce.Name == "process_name" {
				continue // replaced by the labelled process above
			}
			ce.Pid = pid
			evs = append(evs, ce)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		Meta: chromeMeta{
			Tool:  "stackthreads-mp obs",
			Note:  "two-clock trace: pid 0 = host wall clock (µs), pid 1+ = per-job virtual clocks (1 cycle = 1µs); joined by trace_id",
			Cycle: "1 virtual cycle = 1us of trace time",
		},
	})
}
