// Command stserve runs the job-execution service: an HTTP+JSON API that
// accepts StackThreads/Cilk simulation jobs, multiplexes them across host
// cores, caches deterministic results, and drains gracefully on SIGTERM.
//
// Usage:
//
//	stserve -addr :8135 -hostprocs 4 -queue 64 -cache 256
//	stserve -watchdog 30s -breaker-threshold 8         # hardened serving
//	stserve -fault serve-panic:7                       # chaos drill
//	stserve -log text                                  # human-readable logs
//	stserve -checkpoint-dir /var/lib/stserve           # durable checkpoints
//	stserve -node 10.0.0.1:8135 -peers 10.0.0.2:8135,10.0.0.3:8135
//	                                                   # 3-node cluster member
//
// -checkpoint-dir makes long jobs crash-safe: the server periodically
// writes each running job's continuation (a complete machine+scheduler
// snapshot captured at a pick boundary) to the directory and, after a
// restart, resumes a resubmitted job from its last checkpoint instead of
// recomputing — byte-identically.
//
// -node (with -peers) joins a cluster: nodes gossip membership over HTTP,
// route submissions to the consistent-hash owner of each job's canonical
// tuple, and — with -steal — idle nodes adopt suspended continuations from
// busy peers and post the finished output back. Point -checkpoint-dir at
// shared storage and a job checkpointed by a crashed node resumes on any
// survivor.
//
// API (see internal/server):
//
//	POST   /jobs        {"app":"fib","mode":"st","workers":8,"seed":1,"wait":true}
//	                    an X-Trace-Id header joins the job to the client's
//	                    end-to-end trace (minted when absent, always echoed)
//	GET    /jobs/{id}   status; ?wait=1 blocks until terminal
//	DELETE /jobs/{id}   cancel
//	GET    /metrics     metrics registry snapshot (?format=prom for
//	                    Prometheus text exposition)
//	GET    /debug/jobs  live in-flight jobs: phase, progress, queue depth,
//	                    breaker state, batched-tier residency
//	GET    /healthz     liveness + draining flag
//
// Serving events are logged structured (JSON by default, -log text for
// human-readable, -log off to silence) to stderr, each carrying the job's
// trace_id. -spans bounds the in-memory ring of wall-clock serving spans
// backing the two-clock trace export.
//
// On SIGTERM/SIGINT the server stops admitting (503), finishes every
// accepted job, flushes a final metrics snapshot to stdout, and exits 0.
// A second SIGTERM/SIGINT while the drain is in flight forces an
// immediate exit with a nonzero status — the escape hatch when a drain
// is stuck behind a wedged job.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/hostpar"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
)

func main() {
	var (
		addr      = flag.String("addr", ":8135", "listen address")
		queue     = flag.Int("queue", 64, "admission queue bound (full = HTTP 429)")
		hostprocs = flag.Int("hostprocs", 0, "executor slots: jobs running concurrently (0 = all cores)")
		cache     = flag.Int("cache", 256, "result cache entries (negative disables)")
		timeout   = flag.Duration("timeout", 0, "default per-job execution deadline (0 = none)")
		maxcycles = flag.Int64("maxcycles", 0, "server-wide work-cycle ceiling per job (0 = none)")
		watchdog  = flag.Duration("watchdog", 0, "per-job wall-clock bound; a trip fails the job as \"timeout\" (0 = none)")
		faultFlag = flag.String("fault", "", "serving fault plan, name[:seed]: injects executor panics/latency for chaos drills")
		bthresh   = flag.Int("breaker-threshold", 0, "host failures in the window that open the load-shedding breaker (0 = default 8, negative disables)")
		bwindow   = flag.Duration("breaker-window", 0, "sliding window the breaker counts failures over (0 = default 10s)")
		bcooldown = flag.Duration("breaker-cooldown", 0, "how long an open breaker sheds before probing (0 = default 2s)")
		logMode   = flag.String("log", "json", "structured serving log to stderr: json, text or off")
		spans     = flag.Int("spans", 0, "server-wide host-span ring bound (0 = default 4096, negative disables)")

		ckptDir    = flag.String("checkpoint-dir", "", "directory for durable job checkpoints (empty = checkpointing off)")
		ckptCycles = flag.Int64("checkpoint-cycles", 0, "virtual cycles between periodic checkpoints (0 = default 2M)")
		nodeAddr   = flag.String("node", "", "advertised host:port joining this server to a cluster (empty = standalone)")
		peersFlag  = flag.String("peers", "", "comma-separated peer host:port seeds for the cluster")
		steal      = flag.Bool("steal", true, "with -node: adopt suspended continuations from busy peers when idle")
		gossipMs   = flag.Int("gossip-ms", 0, "with -node: membership gossip period in ms (0 = default 500)")
		stealTTL   = flag.Duration("steal-ttl", 0, "claim lifetime for stolen continuations (0 = default 10s)")
	)
	flag.Parse()

	plan, err := fault.ParsePlan(*faultFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stserve:", err)
		os.Exit(2)
	}
	var logger *slog.Logger
	switch *logMode {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "stserve: -log %q: want json, text or off\n", *logMode)
		os.Exit(2)
	}
	var hostRec *obs.HostRecorder
	if *spans >= 0 {
		hostRec = obs.NewHostRecorder(*spans)
	}
	var store snapshot.Store
	if *ckptDir != "" {
		ds, err := snapshot.NewDirStore(*ckptDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stserve:", err)
			os.Exit(2)
		}
		store = ds
	}
	if *peersFlag != "" && *nodeAddr == "" {
		fmt.Fprintln(os.Stderr, "stserve: -peers requires -node (this node's advertised host:port)")
		os.Exit(2)
	}
	s := server.New(server.Config{
		QueueBound:       *queue,
		HostProcs:        *hostprocs,
		CacheEntries:     *cache,
		DefaultTimeout:   *timeout,
		MaxWorkCycles:    *maxcycles,
		Watchdog:         *watchdog,
		Fault:            fault.New(plan),
		BreakerThreshold: *bthresh,
		BreakerWindow:    *bwindow,
		BreakerCooldown:  *bcooldown,
		HostSpans:        hostRec,
		Log:              logger,
		Checkpoints:      store,
		CheckpointCycles: *ckptCycles,
		StealTTL:         *stealTTL,
	})
	handler := s.Handler()
	var node *cluster.Node
	if *nodeAddr != "" {
		var peers []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		n, err := cluster.New(s, cluster.Config{
			Self:        *nodeAddr,
			Peers:       peers,
			GossipEvery: time.Duration(*gossipMs) * time.Millisecond,
			Steal:       *steal,
			Log:         logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stserve:", err)
			os.Exit(2)
		}
		node = n
		handler = n.Handler()
		n.Start()
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	// Buffer two signals: the first starts the drain, the second (while
	// draining) forces an immediate exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	shutdownDone := make(chan struct{})
	go func() {
		sig := <-sigs
		fmt.Printf("stserve: %v: draining (no new admissions, finishing accepted jobs)\n", sig)
		go func() {
			sig2 := <-sigs
			fmt.Fprintf(os.Stderr, "stserve: %v during drain: forcing immediate exit\n", sig2)
			os.Exit(1)
		}()
		if node != nil {
			// Stop gossiping and stealing before the drain so peers route
			// around this node and no new continuation is adopted mid-exit.
			node.Close()
		}
		s.Drain()
		if b, err := s.Metrics().MarshalJSON(); err == nil {
			fmt.Printf("stserve: final metrics:\n%s\n", b)
		}
		st := s.Stats()
		fmt.Printf("stserve: drained: accepted=%d completed=%d failed=%d canceled=%d timeout=%d shed=%d executor_restarts=%d watchdog_trips=%d cache_hits=%d cache_misses=%d rejected=%d\n",
			st.Accepted, st.Completed, st.Failed, st.Canceled, st.Timeout,
			st.Shed, st.ExecutorRestarts, st.WatchdogTrips,
			st.CacheHits, st.CacheMisses, st.RejectedQueueFull+st.RejectedDraining)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		close(shutdownDone)
	}()

	fmt.Printf("stserve: listening on %s (executors=%d queue=%d cache=%d)\n",
		*addr, hostpar.Procs(*hostprocs), *queue, *cache)
	if node != nil {
		fmt.Printf("stserve: cluster node %s (peers=%s steal=%v)\n", *nodeAddr, *peersFlag, *steal)
	}
	if *ckptDir != "" {
		fmt.Printf("stserve: checkpointing to %s\n", *ckptDir)
	}
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "stserve:", err)
		os.Exit(1)
	}
	<-shutdownDone
}
