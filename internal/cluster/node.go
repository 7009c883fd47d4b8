package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// A Node lifts one stserve instance into a cluster: a thin HTTP layer over
// the single-node server that (a) routes job submissions to the member
// owning the canonical tuple on the consistent-hash ring, (b) gossips
// membership and load over plain HTTP, and (c) runs the thief side of
// cluster work stealing — an idle node claims a busy peer's suspended
// continuation, resumes it locally (byte-identically; the round-trip
// property), and posts the finished output back against the claim.
//
// Everything cluster-level is host-side serving machinery: which node
// computes a job never changes a byte of its output, so routing, failover
// and stealing are free to be timing-dependent.

// Cross-node headers. X-Trace-Id (server.TraceHeader) rides along too, so
// one two-clock trace spans every node a request touched.
const (
	// HeaderForwarded marks a node-to-node forwarded submission and names
	// the forwarding node. Its presence is the loop guard: a forwarded
	// request is always served locally, so transient ring disagreement
	// degrades to one extra hop, never a cycle.
	HeaderForwarded = "X-ST-Forwarded"
	// HeaderDeadline carries the job's wall-clock deadline (ms) on
	// node-to-node requests, HeaderBudget its virtual-cycle budget. The
	// request body stays authoritative; the headers make the limits
	// visible to proxies and logs without parsing JSON.
	HeaderDeadline = "X-ST-Deadline-Ms"
	HeaderBudget   = "X-ST-Budget-Cycles"
	// HeaderOwner names the member that actually served a routed request.
	HeaderOwner = "X-ST-Owner"
)

// Config configures one cluster node.
type Config struct {
	// Self is this node's advertised host:port — its identity on the ring
	// and in gossip. Required; must match what peers can dial.
	Self string
	// Peers seeds the membership (host:port each). Gossip discovers the
	// rest transitively.
	Peers []string
	// GossipEvery is the membership/load exchange period (default 500ms).
	GossipEvery time.Duration
	// Steal enables the thief loop: when this node is idle it polls busy
	// peers and adopts one suspended continuation at a time.
	Steal bool
	// StealEvery is the thief poll period (default 250ms).
	StealEvery time.Duration
	// StealTimeout bounds how long a victim waits for a running job to
	// reach a pick boundary before giving up a steal (default 2s).
	StealTimeout time.Duration
	// Client is the HTTP client for node-to-node calls; per-call timeouts
	// come from contexts, so the client itself should have none.
	Client *http.Client
	// Log receives cluster events; nil disables logging.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.GossipEvery <= 0 {
		c.GossipEvery = 500 * time.Millisecond
	}
	if c.StealEvery <= 0 {
		c.StealEvery = 250 * time.Millisecond
	}
	if c.StealTimeout <= 0 {
		c.StealTimeout = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// member is what this node believes about one peer.
type member struct {
	alive    bool
	fails    int
	lastSeen time.Time
	info     Info
}

// Node is one cluster member wrapping a *server.Server.
type Node struct {
	cfg    Config
	srv    *server.Server
	client *http.Client
	log    *slog.Logger

	mu      sync.Mutex
	members map[string]*member // keyed by address; never contains Self

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	forwardsOut      atomic.Int64
	forwardsIn       atomic.Int64
	forwardFailovers atomic.Int64
	stealsTried      atomic.Int64
	stealsAdopted    atomic.Int64
	stealsReturned   atomic.Int64
}

// New wraps srv as a cluster node. Call Start to begin gossip and stealing;
// the node is usable as a pure router without Start (static membership from
// Peers, no liveness tracking).
func New(srv *server.Server, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	n := &Node{
		cfg:     cfg,
		srv:     srv,
		client:  cfg.Client,
		log:     cfg.Log,
		members: make(map[string]*member),
		stop:    make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self {
			// Seeds start alive so the first ring routes to them before the
			// first gossip round confirms them; a dead seed is discovered
			// (and routed around) within two gossip periods.
			n.members[p] = &member{alive: true}
		}
	}
	return n, nil
}

// Server returns the wrapped single-node server.
func (n *Node) Server() *server.Server { return n.srv }

// Start launches the gossip loop and, when enabled, the thief loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.gossipLoop()
	if n.cfg.Steal {
		n.wg.Add(1)
		go n.stealLoop()
	}
}

// Close stops the cluster loops. The wrapped server is untouched — drain it
// separately. Adoptions in flight are abandoned; their victims reclaim at
// claim expiry, so no job is lost.
func (n *Node) Close() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) logEvent(msg string, args ...any) {
	if n.log != nil {
		n.log.Info(msg, args...)
	}
}

// ring builds the routing ring over this node plus every peer currently
// believed alive.
func (n *Node) ring() *Ring {
	addrs := []string{n.cfg.Self}
	n.mu.Lock()
	for a, m := range n.members {
		if m.alive {
			addrs = append(addrs, a)
		}
	}
	n.mu.Unlock()
	return NewRing(addrs)
}

// markDead records a failed node-to-node call so routing stops targeting
// the peer until gossip sees it again.
func (n *Node) markDead(addr string) {
	n.mu.Lock()
	if m := n.members[addr]; m != nil {
		m.alive = false
		m.fails++
	}
	n.mu.Unlock()
}

// mintTraceID creates a trace id at the cluster edge so a forwarded job's
// spans on every node share one id even when the client sent none.
func mintTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: trace-id entropy: %v", err))
	}
	return "c-" + hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------------
// Wire types

// Info is the gossip payload: one node's identity, membership view and load.
type Info struct {
	Node        string   `json:"node"`
	Members     []string `json:"members"`
	Running     int      `json:"running"`
	QueueDepth  int      `json:"queue_depth"`
	Stealable   int      `json:"stealable"`
	Draining    bool     `json:"draining"`
	SnapVersion uint32   `json:"snap_version"`
}

// StealGrant is a victim's response to a steal: the job's identity, its
// single-use claim, and the complete encoded continuation. Snapshot rides
// as base64 (encoding/json's []byte form).
type StealGrant struct {
	Job      string            `json:"job"`
	Claim    string            `json:"claim"`
	TraceID  string            `json:"trace_id"`
	Req      server.JobRequest `json:"req"`
	Snapshot []byte            `json:"snapshot"`
}

// Completion is the thief's report back to the victim: the finished output
// for a stolen job, posted against its claim.
type Completion struct {
	Job    string            `json:"job"`
	Claim  string            `json:"claim"`
	Output *server.JobOutput `json:"output"`
}

// MemberView is one row of the cluster section of /debug/jobs.
type MemberView struct {
	Addr       string `json:"addr"`
	Self       bool   `json:"self,omitempty"`
	Alive      bool   `json:"alive"`
	Running    int    `json:"running,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	Stealable  int    `json:"stealable,omitempty"`
	Draining   bool   `json:"draining,omitempty"`
	AgeMs      int64  `json:"age_ms,omitempty"` // since last successful gossip
}

// ShardView maps one in-flight job to the ring member owning its key.
type ShardView struct {
	Job   string `json:"job"`
	Owner string `json:"owner"`
	Local bool   `json:"local"`
}

// TrafficView counts this node's cluster-level activity.
type TrafficView struct {
	ForwardsOut      int64 `json:"forwards_out"`
	ForwardsIn       int64 `json:"forwards_in"`
	ForwardFailovers int64 `json:"forward_failovers"`
	StealsTried      int64 `json:"steals_tried"`
	StealsAdopted    int64 `json:"steals_adopted"`
	StealsReturned   int64 `json:"steals_returned"`
}

// DebugView is the cluster-decorated /debug/jobs payload: the single-node
// snapshot plus membership, per-job shard ownership and traffic counters.
type DebugView struct {
	Node    string       `json:"node"`
	Members []MemberView `json:"members"`
	Traffic TrafficView  `json:"traffic"`
	Shards  []ShardView  `json:"shards,omitempty"`
	server.DebugView
}

// ---------------------------------------------------------------------------
// HTTP surface

// Handler returns the node's HTTP API: the wrapped server's full surface,
// with POST /jobs routed by the ring, GET /debug/jobs decorated with the
// cluster view, and the node-to-node endpoints added:
//
//	GET  /cluster/info      gossip: identity, membership, load
//	POST /cluster/steal     victim side: suspend one job, hand out its claim
//	POST /cluster/complete  thief side posts a stolen job's output back
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", n.srv.Handler())
	mux.HandleFunc("POST /jobs", n.handleSubmit)
	mux.HandleFunc("GET /debug/jobs", n.handleDebug)
	mux.HandleFunc("GET /cluster/info", n.handleInfo)
	mux.HandleFunc("POST /cluster/steal", n.handleSteal)
	mux.HandleFunc("POST /cluster/complete", n.handleComplete)
	return mux
}

// handleSubmit routes a submission: forwarded or locally-owned requests are
// served by the wrapped server; anything else is proxied to the ring owner
// of the job's canonical tuple, with failover to local serving when the
// owner is unreachable (availability beats placement — the bytes are
// identical either way).
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorView{Error: "bad request body: " + err.Error()})
		return
	}
	var req server.JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorView{Error: "bad request body: " + err.Error()})
		return
	}
	norm, err := req.Normalized()
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorView{Error: err.Error()})
		return
	}
	traceID := r.Header.Get(server.TraceHeader)
	if traceID == "" {
		traceID = mintTraceID()
	}

	if fwd := r.Header.Get(HeaderForwarded); fwd != "" {
		// Loop guard: a forwarded request is served here, period.
		n.forwardsIn.Add(1)
		n.logEvent("serving forwarded job", "trace_id", traceID, "from", fwd, "app", norm.App)
		n.serveLocal(w, r, body, traceID)
		return
	}
	owner := n.ring().Owner(norm.CacheKey())
	if owner == "" || owner == n.cfg.Self {
		n.serveLocal(w, r, body, traceID)
		return
	}
	n.forward(w, r, body, norm, traceID, owner)
}

// serveLocal hands the submission to the wrapped server with the body
// restored and the (possibly minted) trace id pinned.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, traceID string) {
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.Header.Set(server.TraceHeader, traceID)
	w.Header().Set(HeaderOwner, n.cfg.Self)
	n.srv.Handler().ServeHTTP(w, r)
}

// forward proxies the submission to the ring owner. The trace id and the
// job's deadline/budget ride as headers so the whole hop chain is visible
// in one two-clock trace and to intermediaries.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, body []byte,
	norm server.JobRequest, traceID, owner string) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		"http://"+owner+"/jobs", bytes.NewReader(body))
	if err != nil {
		n.serveLocal(w, r, body, traceID)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TraceHeader, traceID)
	req.Header.Set(HeaderForwarded, n.cfg.Self)
	if norm.TimeoutMs > 0 {
		req.Header.Set(HeaderDeadline, strconv.FormatInt(norm.TimeoutMs, 10))
	}
	if norm.MaxWorkCycles > 0 {
		req.Header.Set(HeaderBudget, strconv.FormatInt(norm.MaxWorkCycles, 10))
	}
	resp, err := n.client.Do(req)
	if err != nil {
		// Owner unreachable: mark it dead and serve locally. The job's
		// bytes do not depend on where it runs; only cache affinity is
		// lost until gossip heals the ring.
		n.markDead(owner)
		n.forwardFailovers.Add(1)
		n.logEvent("forward failed, serving locally", "trace_id", traceID,
			"owner", owner, "err", err.Error())
		n.serveLocal(w, r, body, traceID)
		return
	}
	defer resp.Body.Close()
	n.forwardsOut.Add(1)
	n.srv.HostSpans().Span(traceID, "", "forward", t0, time.Now(),
		obs.Arg{K: "status", V: int64(resp.StatusCode)})
	for _, h := range []string{"Content-Type", server.TraceHeader, "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderOwner, owner)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleInfo serves gossip and learns the caller's address from ?from=.
func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	if from := r.URL.Query().Get("from"); from != "" && from != n.cfg.Self {
		n.mu.Lock()
		if n.members[from] == nil {
			n.members[from] = &member{alive: true}
		}
		n.mu.Unlock()
	}
	v := n.srv.DebugSnapshot()
	info := Info{
		Node:        n.cfg.Self,
		Members:     append([]string{n.cfg.Self}, n.peerAddrs()...),
		Running:     v.Running,
		QueueDepth:  v.QueueDepth,
		Stealable:   n.srv.Stealable(),
		Draining:    v.Draining,
		SnapVersion: snapshot.FormatVersion,
	}
	server.WriteJSON(w, http.StatusOK, info)
}

// handleSteal is the victim side: suspend one running job at its next pick
// boundary and hand out the continuation under a fresh claim.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req struct {
		TimeoutMs int64 `json:"timeout_ms,omitempty"`
	}
	if body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16)); err == nil && len(body) > 0 {
		_ = json.Unmarshal(body, &req)
	}
	d := n.cfg.StealTimeout
	if req.TimeoutMs > 0 && time.Duration(req.TimeoutMs)*time.Millisecond < d {
		d = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if n.srv.Stealable() == 0 {
		// The thief chose this victim from gossiped state that may be a
		// round stale; re-check surplus at grant time so a node never
		// gives away its last running job to a peer that will only be
		// robbed of it in turn.
		server.WriteJSON(w, http.StatusNotFound, server.ErrorView{Error: server.ErrNoStealable.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	j, claim, enc, err := n.srv.StealOne(ctx)
	if err != nil {
		server.WriteJSON(w, http.StatusNotFound, server.ErrorView{Error: err.Error()})
		return
	}
	w.Header().Set(server.TraceHeader, j.TraceID())
	if j.Req.TimeoutMs > 0 {
		w.Header().Set(HeaderDeadline, strconv.FormatInt(j.Req.TimeoutMs, 10))
	}
	if j.Req.MaxWorkCycles > 0 {
		w.Header().Set(HeaderBudget, strconv.FormatInt(j.Req.MaxWorkCycles, 10))
	}
	server.WriteJSON(w, http.StatusOK, StealGrant{
		Job: j.ID, Claim: claim, TraceID: j.TraceID(), Req: j.Req, Snapshot: enc,
	})
}

// handleComplete accepts a thief's finished output for a stolen job.
func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	var c Completion
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&c); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorView{Error: "bad completion body: " + err.Error()})
		return
	}
	switch err := n.srv.CompleteStolen(c.Job, c.Claim, c.Output); {
	case err == nil:
		server.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case errors.Is(err, server.ErrNoJob):
		server.WriteJSON(w, http.StatusNotFound, server.ErrorView{Error: err.Error()})
	case errors.Is(err, server.ErrBadClaim):
		// At-most-once: the claim was spent, expired or never issued.
		server.WriteJSON(w, http.StatusConflict, server.ErrorView{Error: err.Error()})
	default:
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorView{Error: err.Error()})
	}
}

// handleDebug decorates the single-node debug snapshot with the cluster
// view: membership, per-job shard ownership, traffic counters.
func (n *Node) handleDebug(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	server.WriteJSON(w, http.StatusOK, n.DebugSnapshot())
}

// DebugSnapshot builds the cluster-decorated debug view.
func (n *Node) DebugSnapshot() DebugView {
	base := n.srv.DebugSnapshot()
	ring := n.ring()
	v := DebugView{
		Node:      n.cfg.Self,
		DebugView: base,
		Traffic: TrafficView{
			ForwardsOut:      n.forwardsOut.Load(),
			ForwardsIn:       n.forwardsIn.Load(),
			ForwardFailovers: n.forwardFailovers.Load(),
			StealsTried:      n.stealsTried.Load(),
			StealsAdopted:    n.stealsAdopted.Load(),
			StealsReturned:   n.stealsReturned.Load(),
		},
	}
	now := time.Now()
	self := MemberView{Addr: n.cfg.Self, Self: true, Alive: true,
		Running: base.Running, QueueDepth: base.QueueDepth, Draining: base.Draining,
		Stealable: n.srv.Stealable()}
	v.Members = append(v.Members, self)
	n.mu.Lock()
	for addr, m := range n.members {
		mv := MemberView{Addr: addr, Alive: m.alive,
			Running: m.info.Running, QueueDepth: m.info.QueueDepth,
			Stealable: m.info.Stealable, Draining: m.info.Draining}
		if !m.lastSeen.IsZero() {
			mv.AgeMs = now.Sub(m.lastSeen).Milliseconds()
		}
		v.Members = append(v.Members, mv)
	}
	n.mu.Unlock()
	sortMembers(v.Members)
	for _, j := range base.Jobs {
		owner := ring.Owner(j.Key)
		v.Shards = append(v.Shards, ShardView{
			Job: j.ID, Owner: owner, Local: owner == n.cfg.Self || owner == "",
		})
	}
	return v
}

func sortMembers(ms []MemberView) {
	for i := 1; i < len(ms); i++ {
		for k := i; k > 0 && ms[k].Addr < ms[k-1].Addr; k-- {
			ms[k], ms[k-1] = ms[k-1], ms[k]
		}
	}
}

// ---------------------------------------------------------------------------
// Gossip

func (n *Node) peerAddrs() []string {
	n.mu.Lock()
	addrs := make([]string, 0, len(n.members))
	for a := range n.members {
		addrs = append(addrs, a)
	}
	n.mu.Unlock()
	return addrs
}

func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.gossipOnce()
		}
	}
}

// gossipOnce probes every known peer and merges the membership views. A
// peer is declared dead after two consecutive failures and revived by any
// success; routing follows immediately via ring().
func (n *Node) gossipOnce() {
	for _, addr := range n.peerAddrs() {
		info, err := n.fetchInfo(addr)
		n.mu.Lock()
		m := n.members[addr]
		if m == nil {
			m = &member{}
			n.members[addr] = m
		}
		if err != nil {
			m.fails++
			if m.fails >= 2 {
				m.alive = false
			}
			n.mu.Unlock()
			continue
		}
		m.alive = true
		m.fails = 0
		m.lastSeen = time.Now()
		m.info = *info
		for _, a := range info.Members {
			if a != "" && a != n.cfg.Self && n.members[a] == nil {
				n.members[a] = &member{}
			}
		}
		n.mu.Unlock()
	}
}

func (n *Node) fetchInfo(addr string) (*Info, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/cluster/info?from="+n.cfg.Self, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: info from %s: HTTP %d", addr, resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// ---------------------------------------------------------------------------
// Thief loop

func (n *Node) stealLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StealEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.stealOnce()
		}
	}
}

// idle reports whether this node has nothing to run — the only state in
// which stealing helps the cluster instead of just moving work around.
func (n *Node) idle() bool {
	v := n.srv.DebugSnapshot()
	return !v.Draining && v.Running == 0 && v.QueueDepth == 0
}

// stealOnce adopts at most one continuation from the busiest peer.
func (n *Node) stealOnce() {
	if !n.idle() {
		return
	}
	var victim string
	best := 0
	n.mu.Lock()
	for addr, m := range n.members {
		if m.alive && m.info.Stealable > best {
			victim, best = addr, m.info.Stealable
		}
	}
	n.mu.Unlock()
	if victim == "" {
		return
	}
	n.stealsTried.Add(1)
	grant, err := n.fetchSteal(victim)
	if err != nil {
		return
	}
	req := grant.Req
	req.Wait = false
	j, err := n.srv.SubmitContinuation(req, grant.TraceID, grant.Snapshot)
	if err != nil {
		n.logEvent("continuation rejected", "trace_id", grant.TraceID,
			"victim", victim, "err", err.Error())
		return
	}
	n.stealsAdopted.Add(1)
	n.logEvent("continuation adopted", "trace_id", grant.TraceID,
		"victim", victim, "victim_job", grant.Job, "local_job", j.ID)
	n.wg.Add(1)
	go n.returnStolen(victim, grant, j)
}

func (n *Node) fetchSteal(addr string) (*StealGrant, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.StealTimeout+time.Second)
	defer cancel()
	body := fmt.Sprintf(`{"timeout_ms":%d}`, n.cfg.StealTimeout.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/cluster/steal", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		n.markDead(addr)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: steal from %s: HTTP %d", addr, resp.StatusCode)
	}
	var g StealGrant
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&g); err != nil {
		return nil, err
	}
	if g.Job == "" || g.Claim == "" || len(g.Snapshot) == 0 {
		return nil, fmt.Errorf("cluster: steal from %s: incomplete grant", addr)
	}
	return &g, nil
}

// returnStolen waits for the adopted run to finish and posts its output
// back to the victim against the claim. A run that does not complete (it
// failed, or this node shut down) is simply not returned: the victim's
// claim expires and the job requeues there — a vanished thief costs
// latency, never the job.
func (n *Node) returnStolen(victim string, grant *StealGrant, j *server.Job) {
	defer n.wg.Done()
	select {
	case <-j.Done():
	case <-n.stop:
		return
	}
	st, _ := j.Terminal()
	out := j.Output()
	if st != server.StateDone || out == nil {
		n.logEvent("adopted run did not complete, leaving reclaim to victim",
			"trace_id", grant.TraceID, "victim_job", grant.Job, "state", st)
		return
	}
	body, err := json.Marshal(Completion{Job: grant.Job, Claim: grant.Claim, Output: out})
	if err != nil {
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(250 * time.Millisecond):
			case <-n.stop:
				return
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://"+victim+"/cluster/complete", bytes.NewReader(body))
		if err != nil {
			cancel()
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.TraceHeader, grant.TraceID)
		req.Header.Set(HeaderForwarded, n.cfg.Self)
		resp, err := n.client.Do(req)
		cancel()
		if err != nil {
			continue
		}
		status := resp.StatusCode
		resp.Body.Close()
		if status == http.StatusOK {
			n.stealsReturned.Add(1)
			n.logEvent("stolen result returned", "trace_id", grant.TraceID,
				"victim_job", grant.Job)
			return
		}
		if status == http.StatusConflict || status == http.StatusNotFound {
			// Claim expired or job gone: the victim already requeued or
			// finished it (at-most-once held); nothing more to do.
			n.logEvent("stolen result rejected", "trace_id", grant.TraceID,
				"victim_job", grant.Job, "status", int64(status))
			return
		}
	}
}
