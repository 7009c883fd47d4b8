package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// TraceHeader carries the request-scoped trace id end to end: clients send
// it on POST /jobs, the server echoes it (minting an id when absent) and
// tags every span and log line with it.
const TraceHeader = "X-Trace-Id"

// MaxJobBody caps a POST /jobs body. The largest real request, with every
// field set to its longest value, is about 400 bytes of JSON, so
// 64 KiB is ample and refusing a hostile body costs at most that much.
const MaxJobBody = 64 << 10

// TraceID is the trace-id rule of every hop. A well-formed client id
// (non-empty, at most 64 bytes of [A-Za-z0-9._-]) is kept; anything else
// is replaced by a minted "t-<16 hex digits>", random so that ids minted
// on different cluster nodes do not collide. The id lands in log lines,
// trace files and headers, so only inert ids pass.
func TraceID(client string) string {
	ok := client != "" && len(client) <= 64
	for i := 0; ok && i < len(client); i++ {
		c := client[i]
		ok = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-'
	}
	if ok {
		return client
	}
	return "t-" + randHex(8)
}

// randHex returns n random bytes in hex. Host-side identity only: never
// part of any deterministic artifact.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("server: entropy: %v", err))
	}
	return hex.EncodeToString(b)
}

// Submission is one POST /jobs request as a hop admits it: the body read
// under MaxJobBody and decoded strictly, the request normalized, and the
// trace id settled. Each hop builds it once per request.
type Submission struct {
	Req     JobRequest // normalized
	TraceID string     // well-formed: the client's or a minted one
	Body    []byte     // the body as read, forwarded unchanged
	spec    jobSpec
}

// ReadSubmission reads a POST /jobs request into a Submission. On a bad
// body (too large, malformed, unknown field) or an invalid request it
// writes the error response itself and returns nil.
func ReadSubmission(w http.ResponseWriter, r *http.Request) *Submission {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxJobBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteJSON(w, status, ErrorView{Error: "bad request body: " + err.Error()})
		return nil
	}
	sub := &Submission{Body: body}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub.Req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorView{Error: "bad request body: " + err.Error()})
		return nil
	}
	if sub.spec, err = sub.Req.normalize(); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorView{Error: err.Error()})
		return nil
	}
	sub.TraceID = TraceID(r.Header.Get(TraceHeader))
	return sub
}

// retryAfterSeconds rounds a backoff up to whole seconds (the Retry-After
// header's granularity), with a floor of 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// JobView is the wire form of a job's status. Result and the artifacts are
// deterministic; the *_us timings are host-side observability and are
// never part of any determinism contract.
type JobView struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id,omitempty"`
	State    string `json:"state"`
	App      string `json:"app"`
	Key      string `json:"key"`
	Priority int    `json:"priority,omitempty"`
	Cache    string `json:"cache,omitempty"`
	Error    string `json:"error,omitempty"`
	Failure  string `json:"failure,omitempty"` // taxonomy: fault | invariant | panic | timeout
	// Resumed marks a run that continued from a checkpoint or a stolen
	// continuation rather than recomputing from scratch (host-side fact;
	// the bytes are identical either way).
	Resumed bool `json:"resumed,omitempty"`

	Result  *coreResultView `json:"result,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Profile string          `json:"profile,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`

	QueueWaitUs int64 `json:"queue_wait_us,omitempty"`
	RunUs       int64 `json:"run_us,omitempty"`

	// HostSpans are the job's wall-clock serving spans (enqueue wait, cache
	// probe, execution). Host-side observability only — like the *_us
	// timings, never part of any determinism contract.
	HostSpans []obs.HostSpan `json:"host_spans,omitempty"`
}

// coreResultView mirrors core.Result with stable JSON field names (the
// per-worker stats are summarized rather than dumped).
type coreResultView struct {
	RV         int64 `json:"rv"`
	Time       int64 `json:"time_cycles"`
	WorkCycles int64 `json:"work_cycles"`
	Instrs     int64 `json:"instrs"`
	Steals     int64 `json:"steals"`
	Attempts   int64 `json:"steal_attempts"`
	Rejects    int64 `json:"steal_rejects"`
	Workers    int   `json:"workers"`
}

// view renders a job's current status; the server mutex is taken briefly to
// read a consistent snapshot.
func (s *Server) view(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		TraceID:  j.traceID,
		State:    j.state,
		App:      j.Req.App,
		Key:      j.key,
		Priority: j.Req.Priority,
		Cache:    j.cacheUse,
		Error:    j.errMsg,
		Failure:  j.failure,
		Resumed:  j.resumed,
	}
	if len(j.hostSpans) > 0 {
		v.HostSpans = append([]obs.HostSpan(nil), j.hostSpans...)
	}
	if !j.started.IsZero() {
		v.QueueWaitUs = j.started.Sub(j.submitted).Microseconds()
		if !j.finished.IsZero() {
			v.RunUs = j.finished.Sub(j.started).Microseconds()
		}
	}
	if out := j.out; out != nil {
		r := out.Result
		v.Result = &coreResultView{
			RV: r.RV, Time: r.Time, WorkCycles: r.WorkCycles, Instrs: r.Instrs,
			Steals: r.Steals, Attempts: r.Attempts, Rejects: r.Rejects, Workers: len(r.Stats),
		}
		if j.Req.Metrics {
			v.Metrics = out.Metrics
		}
		if j.Req.Profile {
			v.Profile = out.Profile
		}
		if j.Req.Trace {
			v.Trace = out.Trace
		}
	}
	return v
}

// Handler returns the service's HTTP API (one mux, built in New):
//
//	POST   /jobs        submit a JobRequest ("wait":true blocks until done);
//	                    an X-Trace-Id header joins the job to the client's
//	                    trace (minted server-side when absent) and is echoed
//	                    on every response for the job
//	GET    /jobs/{id}   job status (?wait=1 blocks until terminal)
//	DELETE /jobs/{id}   cancel a queued or running job
//	GET    /metrics     server metrics registry snapshot (JSON by default;
//	                    ?format=prom for Prometheus text exposition)
//	GET    /debug/jobs  live serving state: in-flight jobs with phase and
//	                    progress, queue depth, breaker, contention
//	GET    /healthz     liveness + draining flag
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// noStore marks a response as point-in-time: metrics, health and debug
// snapshots must never be served from an HTTP cache.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

// WriteJSON writes v as the indented JSON body of a response with the given
// status. Every JSON response of the server and of a cluster node goes
// through it, so their bytes agree.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ErrorView is the JSON body of every error response.
type ErrorView struct {
	Error   string `json:"error"`
	Failure string `json:"failure,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if sub := ReadSubmission(w, r); sub != nil {
		s.Respond(w, r, sub)
	}
}

// Respond admits a submission and writes the job's response. It is the
// submit-and-respond half of POST /jobs, which a cluster node calls with
// the submission it already read at its edge.
func (s *Server) Respond(w http.ResponseWriter, r *http.Request, sub *Submission) {
	j, err := s.admit(sub.Req, sub.spec, sub.TraceID, nil)
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		// Load shedding: the breaker says the host is sick; tell the
		// client exactly how long to back off.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
		WriteJSON(w, http.StatusServiceUnavailable, ErrorView{Error: err.Error(), Failure: FailShed})
		return
	case errors.Is(err, ErrDraining):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorView{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell closed-loop clients when to come back.
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests, ErrorView{Error: err.Error()})
		return
	case err != nil:
		WriteJSON(w, http.StatusBadRequest, ErrorView{Error: err.Error()})
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	if sub.Req.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// The client went away; the job stays accepted and keeps
			// running (it is cheap, deterministic, and cacheable).
			WriteJSON(w, http.StatusAccepted, s.view(j))
			return
		}
		WriteJSON(w, http.StatusOK, s.view(j))
		return
	}
	WriteJSON(w, http.StatusAccepted, s.view(j))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		WriteJSON(w, http.StatusNotFound, ErrorView{Error: err.Error()})
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	WriteJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		WriteJSON(w, http.StatusNotFound, ErrorView{Error: err.Error()})
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	WriteJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncObsMetrics()
	noStore(w)
	if r.URL.Query().Get("format") == "prom" {
		// Prometheus text exposition, version 0.0.4.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.met.WritePrometheus(w, "st"); err != nil {
			WriteJSON(w, http.StatusInternalServerError, ErrorView{Error: err.Error()})
		}
		return
	}
	b, err := s.met.MarshalJSON()
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorView{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

func (s *Server) handleDebugJobs(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	WriteJSON(w, http.StatusOK, s.DebugSnapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.Draining()})
}
