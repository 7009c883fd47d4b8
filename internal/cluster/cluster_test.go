package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// ---------------------------------------------------------------------------
// Harness: k in-process nodes, each a real HTTP server with a real address.

// hswap lets the httptest server start (to learn its address) before the
// node that answers on it exists.
type hswap struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *hswap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *hswap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testNode struct {
	node *Node
	srv  *server.Server
	ts   *httptest.Server
	addr string
}

func (tn *testNode) url() string { return "http://" + tn.addr }

// kill simulates a node dying: its HTTP surface vanishes, its cluster
// loops stop, and — since a crashed process stops computing — every live
// job is aborted. Cancellation never deletes a stored checkpoint, exactly
// like a crash: whatever the node persisted before death stays behind for
// a survivor to resume.
func (tn *testNode) kill() {
	tn.ts.Close()
	tn.node.Close()
	for _, dj := range tn.srv.DebugSnapshot().Jobs {
		_, _ = tn.srv.Cancel(dj.ID)
	}
}

// startCluster brings up k fully-meshed nodes. scfg seeds each node's
// server config (Checkpoints may be shared); mut tweaks the cluster config.
func startCluster(t *testing.T, k int, scfg server.Config, mut func(i int, c *Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, k)
	addrs := make([]string, k)
	for i := range nodes {
		sw := &hswap{}
		ts := httptest.NewServer(sw)
		nodes[i] = &testNode{ts: ts, addr: ts.Listener.Addr().String()}
		addrs[i] = nodes[i].addr
	}
	for i, tn := range nodes {
		var peers []string
		for _, a := range addrs {
			if a != tn.addr {
				peers = append(peers, a)
			}
		}
		nodeCfg := scfg
		nodeCfg.HostSpans = obs.NewHostRecorder(0)
		tn.srv = server.New(nodeCfg)
		cfg := Config{
			Self:        tn.addr,
			Peers:       peers,
			GossipEvery: 15 * time.Millisecond,
			StealEvery:  10 * time.Millisecond,
		}
		mut(i, &cfg)
		n, err := New(tn.srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn.node = n
		tn.ts.Config.Handler.(*hswap).set(n.Handler())
		n.Start()
	}
	t.Cleanup(func() {
		// Stop every node's cluster loops before tearing down any HTTP
		// surface, so no loop is mid-request into a closing listener.
		for _, tn := range nodes {
			tn.node.Close()
		}
		for _, tn := range nodes {
			tn.srv.Drain()
		}
		for _, tn := range nodes {
			tn.ts.Close()
		}
	})
	return nodes
}

func postJSON(t *testing.T, url string, v any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// reference computes the job's expected output bytes on a fresh,
// unclustered execution.
func reference(t *testing.T, req server.JobRequest) []byte {
	t.Helper()
	out, err := server.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return mustJSON(t, out)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seedOwnedBy finds a fib seed whose canonical tuple the ring assigns to
// want, so routing tests can force a cross-node hop deterministically.
func seedOwnedBy(t *testing.T, ring *Ring, want string) server.JobRequest {
	t.Helper()
	for seed := uint64(1); seed < 5000; seed++ {
		req := server.JobRequest{App: "fib", Workers: 4, Seed: seed, Wait: true}
		norm, err := req.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(norm.CacheKey()) == want {
			return req
		}
	}
	t.Fatal("no seed maps to the wanted owner")
	return server.JobRequest{}
}

// ---------------------------------------------------------------------------
// Ring

func TestRingOwnershipIsConsistent(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	r := NewRing(members)
	keys := make([]string, 2000)
	owners := make(map[string]int)
	for i := range keys {
		keys[i] = fmt.Sprintf("app=fib|seed=%d|snapver=1", i)
		owners[r.Owner(keys[i])]++
	}
	// Every member owns a non-trivial share.
	for _, m := range members {
		if owners[m] < len(keys)/10 {
			t.Fatalf("member %s owns %d of %d keys — ring is badly unbalanced", m, owners[m], len(keys))
		}
	}
	// Removing one member only remaps that member's keys: the defining
	// consistent-hashing property (cache and checkpoint affinity survive
	// membership churn).
	shrunk := NewRing(members[:2])
	for _, k := range keys {
		before := r.Owner(k)
		after := shrunk.Owner(k)
		if before != "c:3" && after != before {
			t.Fatalf("key %q moved %s -> %s though its owner never left", k, before, after)
		}
	}
	if NewRing(nil).Owner("anything") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

// ---------------------------------------------------------------------------
// Routing + trace propagation

// TestForwardSharesTraceAcrossNodes is the cross-node tracing contract: a
// job submitted to the "wrong" node is forwarded to its ring owner, and
// every span the request produced — the forward hop on the first node, the
// serving spans on the owner — carries the client's one trace id.
func TestForwardSharesTraceAcrossNodes(t *testing.T) {
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16},
		func(i int, c *Config) {})
	a, b := nodes[0], nodes[1]

	req := seedOwnedBy(t, a.node.ring(), b.addr)
	const traceID = "trace-fwd-7"
	resp, body := postJSON(t, a.url()+"/jobs", req, map[string]string{server.TraceHeader: traceID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderOwner); got != b.addr {
		t.Fatalf("owner header = %q, want %q", got, b.addr)
	}
	if got := resp.Header.Get(server.TraceHeader); got != traceID {
		t.Fatalf("trace header = %q, want %q", got, traceID)
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != server.StateDone {
		t.Fatalf("state = %s, want done", view.State)
	}
	if view.TraceID != traceID {
		t.Fatalf("job trace id = %q, want %q", view.TraceID, traceID)
	}
	// Owner-side serving spans all carry the client's id.
	if len(view.HostSpans) == 0 {
		t.Fatal("forwarded job has no host spans")
	}
	for _, sp := range view.HostSpans {
		if sp.TraceID != traceID {
			t.Fatalf("owner span %q has trace id %q, want %q", sp.Name, sp.TraceID, traceID)
		}
	}
	// Forwarder-side hop span carries it too: one trace spans the cluster.
	found := false
	for _, sp := range a.srv.HostSpans().Spans() {
		if sp.Name == "forward" && sp.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Fatal("forwarding node recorded no 'forward' span with the client's trace id")
	}
	// The job lives on the owner, not the forwarder.
	if _, err := a.srv.Job(view.ID); err == nil {
		t.Fatal("forwarder kept a copy of the job")
	}
	if _, err := b.srv.Job(view.ID); err != nil {
		t.Fatalf("owner does not have the job: %v", err)
	}
	if got := b.node.forwardsIn.Load(); got != 1 {
		t.Fatalf("owner forwardsIn = %d, want 1", got)
	}
}

// TestMalformedTraceIDReplacedAtEdge: a malformed client trace id sent to
// a node that does not own the key is replaced at that edge, before any
// log, span or forward. The one well-formed id it mints comes back in the
// response header, is the owner's JobView.trace_id, and tags the edge's
// forward span.
func TestMalformedTraceIDReplacedAtEdge(t *testing.T) {
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16},
		func(i int, c *Config) {})
	a, b := nodes[0], nodes[1]

	req := seedOwnedBy(t, a.node.ring(), b.addr)
	const bad = "bad id!{};"
	resp, body := postJSON(t, a.url()+"/jobs", req, map[string]string{server.TraceHeader: bad})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderOwner); got != b.addr {
		t.Fatalf("owner header = %q, want %q", got, b.addr)
	}
	id := resp.Header.Get(server.TraceHeader)
	if id == bad || server.TraceID(id) != id {
		t.Fatalf("echoed trace id %q is not well-formed", id)
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.TraceID != id {
		t.Fatalf("owner's job trace id = %q, header %q", view.TraceID, id)
	}
	var spans []string
	for _, sp := range a.srv.HostSpans().Spans() {
		if sp.Name == "forward" {
			spans = append(spans, sp.TraceID)
		}
	}
	if len(spans) != 1 || spans[0] != id {
		t.Fatalf("edge forward spans carry trace ids %q, want [%q]", spans, id)
	}
}

// TestRingRebuiltOnMembershipChange: submissions reuse the routing ring;
// it is rebuilt only when the set of live members changes.
func TestRingRebuiltOnMembershipChange(t *testing.T) {
	n, err := New(server.New(server.Config{HostProcs: 1}), Config{Self: "a:1", Peers: []string{"b:2", "c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Server().Drain()
	r := n.ring()
	if got := r.Members(); len(got) != 3 {
		t.Fatalf("ring members %v, want 3", got)
	}
	if n.ring() != r {
		t.Fatal("ring rebuilt with no membership change")
	}
	n.markDead("b:2")
	shrunk := n.ring()
	if shrunk == r || len(shrunk.Members()) != 2 {
		t.Fatalf("ring after b died: %v", shrunk.Members())
	}
	n.markDead("b:2") // already dead: the live set is unchanged
	if n.ring() != shrunk {
		t.Fatal("ring rebuilt though the live set did not change")
	}
}

func TestForwardFailsOverToLocal(t *testing.T) {
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16},
		func(i int, c *Config) {})
	a, b := nodes[0], nodes[1]

	req := seedOwnedBy(t, a.node.ring(), b.addr)
	b.kill()
	resp, body := postJSON(t, a.url()+"/jobs", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderOwner); got != a.addr {
		t.Fatalf("owner header = %q, want local %q", got, a.addr)
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != server.StateDone {
		t.Fatalf("state = %s, want done", view.State)
	}
	if got := a.node.forwardFailovers.Load(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	ref := reference(t, server.JobRequest{App: "fib", Workers: 4, Seed: req.Seed})
	j, err := a.srv.Job(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, j.Output()); !bytes.Equal(got, ref) {
		t.Fatal("failover output differs from reference")
	}
}

// ---------------------------------------------------------------------------
// Cluster work stealing

// TestStealCompletesRemotely: a busy node's running job is suspended at a
// pick boundary, its continuation adopted by an idle peer, and the output
// the peer posts back is byte-identical to an undisturbed local run.
func TestStealCompletesRemotely(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node steal test")
	}
	// The timing knobs must tolerate the race detector slowing every step
	// ~10-20x. StealTimeout bounds the victim's wait for a pick-boundary
	// yield AND (via the thief's fetch deadline) the grant transfer — cut
	// short, the thief abandons a minted claim and the job stalls until
	// reclaim. StealTTL must outlast a slowed adopted run, or the victim
	// reclaims first and the late completion is rejected (at-most-once),
	// leaving steals_completed at zero forever.
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16,
		StealTTL: time.Minute},
		func(i int, c *Config) {
			c.Steal = i == 1 // only the second node is a thief
			c.GossipEvery = 10 * time.Millisecond
			c.StealEvery = 5 * time.Millisecond
			c.StealTimeout = 30 * time.Second
		})
	victim, thief := nodes[0], nodes[1]

	for attempt := 0; attempt < 30; attempt++ {
		// Two concurrent jobs: with nothing queued a node's last running
		// job is not surplus, so a lone job would never be offered. Two
		// running jobs leave exactly one stealable. Paper-scale fib: the
		// quick size finishes in well under a steal-probe period on the
		// batched interpreter tier, so the thief would never find it running.
		reqs := [2]server.JobRequest{
			{App: "fib", Full: true, Workers: 4, Seed: uint64(100 + 2*attempt), NoCache: true},
			{App: "fib", Full: true, Workers: 4, Seed: uint64(101 + 2*attempt), NoCache: true},
		}
		var jobs [2]*server.Job
		for i, req := range reqs {
			j, err := victim.srv.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for _, j := range jobs {
			select {
			case <-j.Done():
			case <-time.After(3 * time.Minute):
				vm := victim.srv.Metrics()
				t.Fatalf("victim job never finished; victim steals out=%d completed=%d reclaimed=%d, thief tried=%d adopted=%d",
					vm.Counter("steals_out"), vm.Counter("steals_completed"), vm.Counter("steals_reclaimed"),
					thief.node.stealsTried.Load(), thief.node.stealsAdopted.Load())
			}
		}
		if victim.srv.Metrics().Counter("steals_completed") == 0 {
			continue // the runs finished before the thief got to them; go again
		}
		for i, j := range jobs {
			st, _ := j.Terminal()
			if st != server.StateDone {
				t.Fatalf("job %d state = %s, want done", i, st)
			}
			if got := mustJSON(t, j.Output()); !bytes.Equal(got, reference(t, reqs[i])) {
				t.Fatalf("job %d output differs from an undisturbed run", i)
			}
		}
		if thief.srv.Metrics().Counter("jobs_resumed") == 0 {
			t.Fatal("thief completed the job without resuming a continuation")
		}
		if thief.node.stealsReturned.Load() == 0 {
			t.Fatal("thief never recorded returning the result")
		}
		v := victim.node.DebugSnapshot()
		if v.Steals.Out == 0 || v.Steals.Completed == 0 {
			t.Fatalf("victim steal counters = %+v, want out/completed > 0", v.Steals)
		}
		return
	}
	t.Fatal("no steal landed in 30 attempts")
}

// ---------------------------------------------------------------------------
// Smoke: 3 nodes, one killed mid-run, nothing lost, bytes identical.

// TestClusterSmoke is the CI cluster gate. Three nodes share a checkpoint
// store (as crash-surviving storage). Jobs run on all three; one node is
// killed while its jobs are mid-flight with checkpoints on disk; the
// resubmitted jobs RESUME from those checkpoints on a surviving node
// rather than recomputing, and every accepted job completes with output
// byte-identical to an undisturbed single-node run.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node smoke test")
	}
	store, err := snapshot.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{
		QueueBound: 32, HostProcs: 2, CacheEntries: 32,
		Checkpoints: store, CheckpointCycles: 500_000,
	}
	nodes := startCluster(t, 3, scfg, func(i int, c *Config) {})
	a, b, c := nodes[0], nodes[1], nodes[2]
	byAddr := map[string]*testNode{a.addr: a, b.addr: b, c.addr: c}

	// Phase 1: ring-routed load while all three nodes are up. Every job
	// lands on its key's owner and completes byte-identically.
	routed := []server.JobRequest{
		{App: "fib", Workers: 4, Seed: 11, NoCache: true, Wait: true},
		{App: "heat", Workers: 4, Seed: 12, NoCache: true, Wait: true},
		{App: "cilksort", Workers: 4, Seed: 13, NoCache: true, Wait: true},
		{App: "fib", Workers: 2, Seed: 14, Mode: "cilk", NoCache: true, Wait: true},
	}
	entries := []*testNode{a, b}
	for i, req := range routed {
		resp, body := postJSON(t, entries[i%2].url()+"/jobs", req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed submit status = %d, body %s", resp.StatusCode, body)
		}
		var view server.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.State != server.StateDone {
			t.Fatalf("routed job state = %s (%s), want done", view.State, view.Error)
		}
		owner := byAddr[resp.Header.Get(HeaderOwner)]
		if owner == nil {
			t.Fatalf("unknown owner %q", resp.Header.Get(HeaderOwner))
		}
		j, err := owner.srv.Job(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, j.Output()); !bytes.Equal(got, reference(t, req)) {
			t.Fatalf("routed job %s output differs from an undisturbed run", view.ID)
		}
	}

	// Phase 2: pin paper-scale jobs to node c (forced local by the
	// loop-guard header), wait until their checkpoints hit the shared
	// store, then kill c mid-run.
	pinned := []server.JobRequest{
		{App: "fib", Full: true, Workers: 4, Seed: 21, NoCache: true},
		{App: "fib", Full: true, Workers: 4, Seed: 22, NoCache: true},
	}
	keys := make([]string, len(pinned))
	for i, req := range pinned {
		norm, err := req.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = norm.CacheKey()
		resp, body := postJSON(t, c.url()+"/jobs", req, map[string]string{HeaderForwarded: "test"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("pinned submit status = %d, body %s", resp.StatusCode, body)
		}
	}
	waitFor(t, "checkpoints from the doomed node", 30*time.Second, func() bool {
		for _, k := range keys {
			if _, err := store.Get(k); err != nil {
				return false
			}
		}
		return true
	})
	c.kill()

	// Phase 3: the client notices c is gone and resubmits to a survivor.
	// The shared store turns the resubmission into a resume: the work c
	// already did is not recomputed.
	resumedBefore := a.srv.Metrics().Counter("jobs_resumed")
	for _, req := range pinned {
		req.Wait = true
		resp, body := postJSON(t, a.url()+"/jobs", req, map[string]string{HeaderForwarded: "test"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resubmit status = %d, body %s", resp.StatusCode, body)
		}
		var view server.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.State != server.StateDone {
			t.Fatalf("resubmitted job state = %s (%s), want done", view.State, view.Error)
		}
		if !view.Resumed {
			t.Fatal("resubmitted job recomputed from scratch despite a stored checkpoint")
		}
		j, err := a.srv.Job(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, j.Output()); !bytes.Equal(got, reference(t, req)) {
			t.Fatalf("resumed job %s output differs from an undisturbed run", view.ID)
		}
	}
	if got := a.srv.Metrics().Counter("jobs_resumed") - resumedBefore; got != int64(len(pinned)) {
		t.Fatalf("jobs_resumed advanced by %d, want %d", got, len(pinned))
	}

	// The debug surface tells the cluster story end to end: three members,
	// the killed one declared dead by gossip.
	dv := a.node.DebugSnapshot()
	if len(dv.Members) != 3 {
		t.Fatalf("debug members = %d, want 3", len(dv.Members))
	}
	waitFor(t, "gossip to declare the killed node dead", 5*time.Second, func() bool {
		for _, m := range a.node.DebugSnapshot().Members {
			if m.Addr == c.addr && !m.Alive {
				return true
			}
		}
		return false
	})
}

// TestInfoAndDebugSurfaces sanity-checks the node-to-node and operator
// endpoints without load.
func TestInfoAndDebugSurfaces(t *testing.T) {
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 1, CacheEntries: 8},
		func(i int, c *Config) {})
	a := nodes[0]

	resp, err := http.Get(a.url() + "/cluster/info?from=" + nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Node != a.addr {
		t.Fatalf("info.Node = %q, want %q", info.Node, a.addr)
	}
	if info.SnapVersion != snapshot.FormatVersion {
		t.Fatalf("info.SnapVersion = %d, want %d", info.SnapVersion, snapshot.FormatVersion)
	}
	if len(info.Members) < 2 {
		t.Fatalf("info.Members = %v, want both nodes", info.Members)
	}

	resp, err = http.Get(a.url() + "/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dv DebugView
	if err := json.Unmarshal(raw, &dv); err != nil {
		t.Fatal(err)
	}
	if dv.Node != a.addr {
		t.Fatalf("debug node = %q, want %q", dv.Node, a.addr)
	}
	// The single-node fields are inlined alongside the cluster section.
	if !strings.Contains(string(raw), `"queue_depth"`) || !strings.Contains(string(raw), `"members"`) {
		t.Fatalf("debug view missing sections: %s", raw)
	}

	// A steal against an idle node reports no stealable work.
	resp, body := postJSON(t, a.url()+"/cluster/steal", map[string]int{"timeout_ms": 50}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("idle steal status = %d, body %s", resp.StatusCode, body)
	}
	// A completion against an unknown claim is rejected.
	resp, _ = postJSON(t, a.url()+"/cluster/complete",
		Completion{Job: "j-999", Claim: "deadbeef", Output: &server.JobOutput{}}, nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("bogus completion accepted")
	}
}

// TestUnknownAppRejectedThroughNode: a cluster node rejects an unknown app
// at its edge with the same 400 and error text a bare server gives, whether
// the request arrives from a client or as a peer's forward, and no node
// admits it.
func TestUnknownAppRejectedThroughNode(t *testing.T) {
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 1, CacheEntries: 8},
		func(i int, c *Config) {})
	a := nodes[0]
	req := server.JobRequest{App: "no-such-benchmark", Wait: true}
	for _, hdr := range []map[string]string{nil, {HeaderForwarded: nodes[1].addr}} {
		resp, body := postJSON(t, a.url()+"/jobs", req, hdr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("headers %v: status = %d, body %s", hdr, resp.StatusCode, body)
		}
		var ev server.ErrorView
		if err := json.Unmarshal(body, &ev); err != nil {
			t.Fatal(err)
		}
		if want := `figures: unknown benchmark "no-such-benchmark"`; ev.Error != want {
			t.Fatalf("headers %v: error %q, want %q", hdr, ev.Error, want)
		}
	}
	for _, tn := range nodes {
		if st := tn.srv.Stats(); st.Accepted != 0 {
			t.Fatalf("node %s admitted a rejected request: accepted = %d", tn.addr, st.Accepted)
		}
	}
}

// TestRemovedEngineRejectedThroughNode: a cluster node's edge decodes
// submissions strictly, like a bare server, so a body naming the removed
// engine selection fields (`engine`, any value, or `hostprocs`) gets a 400
// naming the unknown field — from a client or as a peer's forward — and no
// node admits it.
func TestRemovedEngineRejectedThroughNode(t *testing.T) {
	nodes := startCluster(t, 2, server.Config{QueueBound: 8, HostProcs: 1, CacheEntries: 8},
		func(i int, c *Config) {})
	a := nodes[0]
	bodies := map[string]string{
		`{"app":"fib","wait":true,"engine":"par"}`:        "engine",
		`{"app":"fib","wait":true,"engine":"parallel"}`:   "engine",
		`{"app":"fib","wait":true,"engine":"throughput"}`: "engine",
		`{"app":"fib","wait":true,"engine":"sequential"}`: "engine",
		`{"app":"fib","wait":true,"hostprocs":4}`:         "hostprocs",
	}
	for body, field := range bodies {
		for _, hdr := range []map[string]string{nil, {HeaderForwarded: nodes[1].addr}} {
			resp, out := postJSON(t, a.url()+"/jobs", json.RawMessage(body), hdr)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s headers %v: status = %d, body %s", body, hdr, resp.StatusCode, out)
			}
			var ev server.ErrorView
			if err := json.Unmarshal(out, &ev); err != nil {
				t.Fatal(err)
			}
			if want := `unknown field "` + field + `"`; !strings.Contains(ev.Error, want) {
				t.Fatalf("%s headers %v: error %q does not name %s", body, hdr, ev.Error, want)
			}
		}
	}
	for _, tn := range nodes {
		if st := tn.srv.Stats(); st.Accepted != 0 {
			t.Fatalf("node %s admitted a rejected request: accepted = %d", tn.addr, st.Accepted)
		}
	}
}

// TestFetchStealFullScaleGrant serves fetchSteal a grant built from a real
// mid-run capture of an 8-worker full-scale fib job, exactly as a victim's
// /cluster/steal would send it, and checks the thief decodes it intact.
// The grant must fit under fetchSteal's response cap, or such a job can
// never be stolen.
func TestFetchStealFullScaleGrant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale capture")
	}
	req, err := server.JobRequest{App: "fib", Full: true, Workers: 8, Seed: 1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out, err := server.Execute(ctx, req)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	_, err = server.ExecuteOpts(ctx, req, server.ExecOpts{
		Checkpoint: &sched.Checkpoint{YieldAtPick: out.Result.Picks / 2},
	})
	var susp *server.SuspendedError
	if !errors.As(err, &susp) {
		t.Fatalf("capture at pick %d: err = %v, want a suspension", out.Result.Picks/2, err)
	}
	body := mustJSON(t, StealGrant{Job: "victim-job", Claim: "claim", TraceID: "trace", Req: req, Snapshot: susp.Enc})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/steal" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer ts.Close()

	n, err := New(nil, Config{Self: "thief"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := n.fetchSteal(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatalf("fetchSteal of a %d-byte grant (%d-byte continuation): %v", len(body), len(susp.Enc), err)
	}
	if g.Job != "victim-job" || g.Claim != "claim" || g.Req != req || !bytes.Equal(g.Snapshot, susp.Enc) {
		t.Fatalf("grant changed in transit: job %q claim %q, %d snapshot bytes (sent %d)", g.Job, g.Claim, len(g.Snapshot), len(susp.Enc))
	}
	snap, err := snapshot.Decode(g.Snapshot)
	if err != nil {
		t.Fatalf("decode stolen continuation: %v", err)
	}
	if snap.Key != req.CacheKey() {
		t.Fatalf("stolen continuation key %q, want %q", snap.Key, req.CacheKey())
	}
}
