package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
)

// serveSpec shapes one serving workload.
type serveSpec struct {
	full   bool
	nodes  int  // in-process servers; more than one makes a static cluster
	slots  int  // executor slots per server
	repeat bool // every fourth request repeats an earlier tuple
}

// serveWorkers is the virtual worker count of every served job.
const serveWorkers = 4

// warmOps is how many requests a serving set-up sends before timing starts.
const warmOps = 2

// serveBench is a closed loop of clients against in-process servers.
type serveBench struct {
	spec    serveSpec
	apps    []string
	clients int
	nodes   []*serveNode
	addrs   []string

	mu     sync.Mutex
	rng    *rand.Rand
	tuples []server.JobRequest     // distinct tuples in first-issue order
	slots  []int                   // request index -> tuple index
	cold   int                     // cold requests scheduled so far
	first  map[int]*server.JobView // each tuple's first reply
}

// serveNode is one server behind a loopback listener; peerTr carries a
// cluster member's forwarded requests.
type serveNode struct {
	srv    *server.Server
	hs     *http.Server
	peerTr *http.Transport
	served chan error
}

func newServeBench(spec serveSpec, appList []string, seed uint64, clients int) (*serveBench, error) {
	b := &serveBench{
		spec:    spec,
		apps:    append([]string(nil), appList...),
		clients: clients,
		rng:     rand.New(rand.NewPCG(seed, 0x5e12e)),
		first:   make(map[int]*server.JobView),
	}
	lns := make([]net.Listener, spec.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		b.addrs = append(b.addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		n := &serveNode{srv: server.New(server.Config{HostProcs: spec.slots}), served: make(chan error, 1)}
		handler := n.srv.Handler()
		if spec.nodes > 1 {
			// A static cluster: never Started, so no gossip or steal timers.
			n.peerTr = &http.Transport{}
			nd, err := cluster.New(n.srv, cluster.Config{
				Self:   b.addrs[i],
				Peers:  b.addrs,
				Client: &http.Client{Transport: n.peerTr},
			})
			if err != nil {
				n.srv.Drain()
				for _, l := range lns[i:] {
					l.Close()
				}
				b.close()
				return nil, err
			}
			handler = nd.Handler()
		}
		n.hs = &http.Server{Handler: handler}
		go func(ln net.Listener) { n.served <- n.hs.Serve(ln) }(ln)
		b.nodes = append(b.nodes, n)
	}
	// Warm up with tuples the timed window never issues.
	warm := rand.New(rand.NewPCG(seed, 0x3a53))
	c := b.newClient(0)
	defer c.tr.CloseIdleConnections()
	for i := 0; i < warmOps; i++ {
		req := b.request(b.apps[i%len(b.apps)], warm.Uint64())
		var view server.JobView
		err := c.c[i%len(c.c)].PostJSON(context.Background(), "/jobs", req, &view)
		if err == nil && view.State != server.StateDone {
			err = fmt.Errorf("warm-up job %s: %s", view.State, view.Error)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *serveBench) request(app string, seed uint64) server.JobRequest {
	return server.JobRequest{App: app, Full: b.spec.full, Workers: serveWorkers, Seed: seed, Wait: true, Metrics: true}
}

// repeatWindow is how many of the latest cold tuples a repeat draws from.
// Far below the servers' default 256-entry result caches, so a repeat hits
// and the hit share stays a quarter however many requests a run completes.
const repeatWindow = 64

// tuple returns the tuple index request k carries. The schedule is a pure
// function of the seed: cold tuples walk the app list in a fresh seeded
// order each round, and with repeats on, every fourth request reissues one
// of the latest cold tuples, skipping the two newest, which may still be
// running.
func (b *serveBench) tuple(k int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.slots) <= k {
		slot := len(b.slots)
		if b.spec.repeat && slot%4 == 3 && b.cold > 2 {
			n := min(b.cold-2, repeatWindow)
			b.slots = append(b.slots, b.cold-2-n+b.rng.IntN(n))
			continue
		}
		if b.cold%len(b.apps) == 0 {
			b.rng.Shuffle(len(b.apps), func(i, j int) { b.apps[i], b.apps[j] = b.apps[j], b.apps[i] })
		}
		b.tuples = append(b.tuples, b.request(b.apps[b.cold%len(b.apps)], b.rng.Uint64()))
		b.slots = append(b.slots, b.cold)
		b.cold++
	}
	return b.slots[k]
}

func (b *serveBench) req(t int) server.JobRequest {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tuples[t]
}

// ownerRecorder notes which member served the last response it carried.
// One closed-loop client owns it and calls through it synchronously.
type ownerRecorder struct {
	base  http.RoundTripper
	owner string
}

func (o *ownerRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := o.base.RoundTrip(req)
	if err == nil {
		o.owner = resp.Header.Get(cluster.HeaderOwner)
	}
	return resp, err
}

// loopClient is one closed-loop client: a retrying client per target over
// one connection pool.
type loopClient struct {
	tr      *http.Transport
	owner   *ownerRecorder
	c       []*client.Client
	retries int
}

func (b *serveBench) newClient(g int) *loopClient {
	lc := &loopClient{tr: &http.Transport{}}
	lc.owner = &ownerRecorder{base: lc.tr}
	for _, a := range b.addrs {
		lc.c = append(lc.c, client.New(client.Config{
			BaseURL:     "http://" + a,
			HTTPClient:  &http.Client{Transport: lc.owner, Timeout: 2 * time.Minute},
			MaxAttempts: 6,
			Seed:        int64(g) + 1,
			OnRetry:     func(client.RetryInfo) { lc.retries++ },
		}))
	}
	return lc
}

func (b *serveBench) window(deadline time.Time) []sample {
	var (
		mu   sync.Mutex
		out  []sample
		next int
		wg   sync.WaitGroup
	)
	for g := 0; g < b.clients; g++ {
		lc := b.newClient(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lc.tr.CloseIdleConnections()
			for time.Now().Before(deadline) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				s := b.op(lc, k)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// op issues request k and checks the reply against the tuple's first one.
func (b *serveBench) op(lc *loopClient, k int) sample {
	t := b.tuple(k)
	req := b.req(t)
	target := k % len(b.addrs)
	lc.owner.owner = ""
	lc.retries = 0
	var view server.JobView
	t0 := time.Now()
	err := lc.c[target].PostJSONTrace(context.Background(), "/jobs", fmt.Sprintf("pb-%d", k), req, &view)
	s := sample{tuple: t, end: time.Now(), outcome: classifyRequest(err), retries: lc.retries}
	s.lat = s.end.Sub(t0)
	if s.outcome != okOp {
		return s
	}
	if view.State != server.StateDone || view.Result == nil {
		s.outcome = opError
		return s
	}
	s.forwarded = len(b.addrs) > 1 && lc.owner.owner != b.addrs[target]
	s.hit = view.Cache == "hit"
	if !s.hit {
		s.vcycles = view.Result.WorkCycles
	}
	for _, sp := range view.HostSpans {
		d := time.Duration(sp.Dur) * time.Microsecond
		switch sp.Name {
		case "enqueue-wait":
			s.enqueue += d
		case "cache-probe":
			s.probe += d
		case "execute":
			s.execute += d
		}
	}
	b.mu.Lock()
	ref, seen := b.first[t]
	if !seen {
		b.first[t] = &view
	}
	b.mu.Unlock()
	if seen && !sameServed(ref, &view) {
		s.outcome = wrongResult
	}
	return s
}

// sameServed compares two replies for one tuple: result and metrics.
func sameServed(a, b *server.JobView) bool {
	return a.Result != nil && b.Result != nil && *a.Result == *b.Result && sameJSON(a.Metrics, b.Metrics)
}

// sameJSON compares two JSON documents byte for byte once compacted (the
// server indents the artifacts it embeds in a reply).
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// matchesOutput reports whether a served reply carries exactly out: the
// result fields the reply shows and the metrics JSON.
func matchesOutput(v *server.JobView, out *server.JobOutput) bool {
	if v.Result == nil || out == nil || out.Result == nil {
		return false
	}
	r, o := v.Result, out.Result
	return r.RV == o.RV && r.Time == o.Time && r.WorkCycles == o.WorkCycles && r.Instrs == o.Instrs &&
		r.Steals == o.Steals && r.Attempts == o.Attempts && r.Rejects == o.Rejects &&
		r.Workers == len(o.Stats) && sameJSON(v.Metrics, out.Metrics)
}

// checks is how many served tuples are re-run after the window.
func (b *serveBench) checks() int {
	if b.spec.full {
		return 2
	}
	return 6
}

// check re-runs a seeded sample of served tuples directly through
// server.Execute; every operation on a tuple whose reply differs fails.
func (b *serveBench) check(samples []sample, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xc43c))
	var pool []int
	seen := make(map[int]bool)
	for _, s := range samples {
		if s.outcome == okOp && !seen[s.tuple] {
			seen[s.tuple] = true
			pool = append(pool, s.tuple)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, t := range pool[:min(len(pool), b.checks())] {
		out, err := server.Execute(context.Background(), b.req(t))
		b.mu.Lock()
		ok := err == nil && matchesOutput(b.first[t], out)
		b.mu.Unlock()
		if !ok {
			markWrong(samples, t)
		}
	}
}

// markWrong fails every successful operation on tuple t.
func markWrong(samples []sample, t int) {
	for i := range samples {
		if samples[i].tuple == t && samples[i].outcome == okOp {
			samples[i].outcome = wrongResult
		}
	}
}

// replay runs tuple t through server.ExecuteOpts untraced and through the
// decomposed layer calls traced, in the given order, and compares them.
func (b *serveBench) replay(r *recorder, t int, tracedFirst bool) (replayed, error) {
	req := b.req(t)
	var rp replayed
	var real, dec *server.JobOutput
	var rerr, derr error
	runReal := func() {
		t0 := time.Now()
		real, rerr = server.ExecuteOpts(context.Background(), req, server.ExecOpts{
			Progress:   &obs.Progress{},
			Contention: &sched.Contention{},
			Checkpoint: &sched.Checkpoint{},
		})
		rp.untraced = time.Since(t0)
	}
	runDec := func() {
		r.begin(spanOp)
		defer r.end()
		dec, derr = executeTraced(r, req, &rp.counts)
	}
	inOrder(tracedFirst, runDec, runReal)
	if err := errors.Join(rerr, derr); err != nil {
		return rp, err
	}
	rp.match = reflect.DeepEqual(real.Result, dec.Result) && bytes.Equal(real.Metrics, dec.Metrics) &&
		real.Profile == dec.Profile && bytes.Equal(real.Trace, dec.Trace)
	return rp, nil
}

// rejected sums the submissions every server turned away.
func (b *serveBench) rejected() int64 {
	var n int64
	for _, nd := range b.nodes {
		st := nd.srv.Stats()
		n += st.RejectedQueueFull + st.RejectedDraining + st.Shed
	}
	return n
}

// close drains every server, then shuts its listener and waits for it.
func (b *serveBench) close() {
	for _, n := range b.nodes {
		n.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.hs.Shutdown(ctx) // connections still open at the timeout close with the process
		cancel()
		<-n.served
		if n.peerTr != nil {
			n.peerTr.CloseIdleConnections()
		}
	}
	b.nodes = nil
}
