package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// layerMetric is one per-layer metric with the end-to-end metric it should
// move, the workloads it should move it on, and where it should stay flat.
type layerMetric struct {
	name, unit, better string
	moves, on, flat    string
	// listed metrics are in BENCHMARK.json and in the result line. A time
	// that only some workloads reach is printed but not listed: elsewhere it
	// would read a constant 0.
	listed bool
}

var layerMetrics = []layerMetric{
	{"apps.compile_ms", "ms", "lower", "latency_ms.p50", "serve-quick", "serve-full, batch", true},
	{"mem.setup_ms", "ms", "lower", "latency_ms.p50, throughput_ops", "serve-quick, migrate", "serve-full, batch", true},
	{"mem.reserved_mwords", "Mword", "lower", "latency_ms.p50, throughput_ops", "serve-quick, migrate", "serve-full, batch", true},
	{"sched.run_ms", "ms", "lower", "latency_ms.p50/p90; vcycles_per_s", "serve-full; batch", "serve-quick", true},
	{"machine.host_ns_per_vcycle", "ns/vcycle", "lower", "latency_ms.p50/p90; vcycles_per_s", "serve-full; batch", "serve-quick", true},
	{"machine.vcycles", "vcycle", "lower", "latency_ms.p50/p90; vcycles_per_s", "serve-full; batch", "serve-quick", true},
	{"core.finish_ms", "ms", "lower", "latency_ms.p50", "serve-full, batch", "migrate", true},
	{"obs.export_ms", "ms", "lower", "latency_ms.p50", "serve-quick", "batch", false},
	{"obs.artifact_kb", "KiB", "lower", "latency_ms.p50", "serve-quick", "batch", true},
	{"snapshot.encode_ms", "ms", "lower", "latency_ms.p50, continuation_bytes", "migrate", "all others", false},
	{"snapshot.decode_ms", "ms", "lower", "latency_ms.p50, continuation_bytes", "migrate", "all others", false},
	{"snapshot.bytes", "B", "lower", "latency_ms.p50, continuation_bytes", "migrate", "all others", true},
	{"snapshot.nonzero_share", "ratio", "higher", "latency_ms.p50, continuation_bytes", "migrate", "all others", true},
	{"machine.import_ms", "ms", "lower", "latency_ms.p50", "migrate", "all others", false},
	{"sched.resume_ms", "ms", "lower", "latency_ms.p50", "migrate", "all others", false},
	{"server.enqueue_wait_ms", "ms", "lower", "latency_ms.p99, throughput_ops", "serve-quick", "batch, migrate", false},
	{"server.execute_ms", "ms", "lower", "latency_ms.p99, throughput_ops", "serve-quick", "batch, migrate", false},
	{"server.cache_probe_ms", "ms", "lower", "latency_ms.p99, throughput_ops", "serve-quick", "batch, migrate", false},
	{"server.cache_hit_ratio", "ratio", "higher", "latency_ms.p99, throughput_ops", "serve-quick", "batch, migrate", true},
	{"http.overhead_ms", "ms", "lower", "latency_ms.p50", "serve-quick", "serve-full", false},
	{"cluster.forwarded_share", "ratio", "lower", "latency_ms.p50/p99", "serve-quick", "serve-full", true},
	{"cluster.forward_ms", "ms", "lower", "latency_ms.p50/p99", "serve-quick", "serve-full", false},
	{"client.retries", "count", "lower", "error_rate, latency_ms.p99", "serve-quick, serve-full", "batch, migrate", true},
	{"server.rejected", "count", "lower", "error_rate, latency_ms.p99", "serve-quick, serve-full", "batch, migrate", true},
	{"trace.overhead_ms", "ms", "lower", "(tracing cost: traced minus untraced time per operation)", "", "", true},
	{"trace.unaccounted_share", "ratio", "lower", "(share of untraced operation time no layer span covers)", "", "", true},
}

// layerSpans maps the span-measured per-layer time metrics to their spans.
var layerSpans = []struct{ metric, span string }{
	{"apps.compile_ms", spanCompile},
	{"mem.setup_ms", spanMem},
	{"sched.run_ms", spanRun},
	{"core.finish_ms", spanFinish},
	{"obs.export_ms", spanExport},
	{"snapshot.encode_ms", spanEncode},
	{"snapshot.decode_ms", spanDecode},
	{"machine.import_ms", spanImport},
	{"sched.resume_ms", spanResume},
}

// traceRun replays a seeded sample of the window's operations, each through
// its real entry point untraced and through the decomposed layer calls
// traced, for at most budget. It writes the spans out, prints the per-layer
// report, and returns the listed per-layer metrics and the replays' tally (a
// replay whose result differs from the real entry point's fails).
func traceRun(b bench, samples []sample, seed uint64, budget time.Duration, workload, spanDir string, w io.Writer, e2e *e2eResult) ([]named, tally, error) {
	r := newRecorder()
	var reps []replayed
	var t tally
	deadline := time.Now().Add(budget)
	for i, tup := range replaySample(samples, seed) {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		r.op = i
		rp, err := b.replay(r, tup, i%2 == 0)
		switch {
		case err != nil:
			fmt.Fprintf(w, "replay %d failed: %v\n", i, err)
			t.add(opError)
		case !rp.match:
			t.add(wrongResult)
		default:
			t.add(okOp)
		}
		reps = append(reps, rp)
	}
	if len(reps) == 0 {
		return nil, t, fmt.Errorf("no successful window operation to replay")
	}
	path, err := r.write(spanDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err != nil {
		return nil, t, err
	}

	vals := make(map[string]float64)
	self := make(map[string][]float64) // per span name, per operation, ms
	var overhead, untraced, nsPerVC, vcycles, reserved, artifact, snapBytes, nonzero []float64
	for i, rp := range reps {
		total, s := r.opSpans(i)
		for name, d := range s {
			self[name] = append(self[name], ms(d))
		}
		untraced = append(untraced, ms(rp.untraced))
		overhead = append(overhead, ms(total-rp.untraced))
		c := rp.counts
		vcycles = append(vcycles, float64(c.vcycles))
		nsPerVC = append(nsPerVC, float64(s[spanRun]+s[spanResume])/float64(c.vcycles))
		reserved = append(reserved, float64(c.reserved)/1e6)
		if c.artifactSize > 0 {
			artifact = append(artifact, float64(c.artifactSize)/1024)
		}
		if c.snapBytes > 0 {
			snapBytes = append(snapBytes, float64(c.snapBytes))
			nonzero = append(nonzero, float64(c.nonzero)/(float64(c.snapBytes)/8))
		}
	}
	for _, ls := range layerSpans {
		if xs, ok := self[ls.span]; ok {
			vals[ls.metric] = median(xs)
		}
	}
	vals["mem.reserved_mwords"] = median(reserved)
	vals["machine.host_ns_per_vcycle"] = median(nsPerVC)
	vals["machine.vcycles"] = median(vcycles)
	if len(artifact) > 0 {
		vals["obs.artifact_kb"] = median(artifact)
	}
	if len(snapBytes) > 0 {
		vals["snapshot.bytes"] = median(snapBytes)
		vals["snapshot.nonzero_share"] = median(nonzero)
	}
	// A mean, not a median: replays alternate which side runs first, and
	// whichever does pays for the heap the pair shares, so the paired
	// differences are bimodal and only their mean cancels the order.
	vals["trace.overhead_ms"] = mean(overhead)
	var covered float64
	for name, xs := range self {
		if name != spanOp {
			covered += mean(xs)
		}
	}
	vals["trace.unaccounted_share"] = 1 - covered/mean(untraced)
	if sb, ok := b.(*serveBench); ok {
		serveLayers(vals, e2e, len(sb.addrs) > 1)
	}

	fmt.Fprintf(w, "per-layer (traced replay of %d operations, spans in %s)\n", len(reps), path)
	var listed []named
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if m.listed {
			listed = append(listed, named{m.name, v, m.unit})
		}
		if !ok {
			fmt.Fprintf(w, "  %-26s %14s %-10s not on this workload's path\n", m.name, "n/a", "")
			continue
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-10s moves %s on %s", m.name, v, m.unit, m.moves, orDash(m.on))
		if m.flat != "" {
			fmt.Fprintf(w, "; flat on %s", m.flat)
		}
		fmt.Fprintln(w)
	}
	u := mean(untraced)
	fmt.Fprintf(w, "  layer self times cover %.1f%% of the mean untraced operation (%.3f ms); %.1f%% unaccounted\n",
		100*covered/u, u, 100*vals["trace.unaccounted_share"])
	fmt.Fprintf(w, "  tracing overhead: mean %.4f ms per operation (%.2f%% of the mean untraced operation)\n",
		vals["trace.overhead_ms"], 100*vals["trace.overhead_ms"]/u)
	if _, ok := b.(*serveBench); ok {
		fmt.Fprintf(w, "  served latency (mean over executed requests, %.3f ms): enqueue wait %.3f + cache probe %.3f + execute %.3f + http/cluster %.3f ms\n",
			e2e.executedMean(func(s sample) time.Duration { return s.lat }),
			vals["server.enqueue_wait_ms"], vals["server.cache_probe_ms"], vals["server.execute_ms"], vals["http.overhead_ms"])
	}
	return listed, t, nil
}

// serveLayers fills the serving-path metrics from the untraced window: the
// host spans each job returned, the client's latency, and which member
// served each request.
func serveLayers(vals map[string]float64, e2e *e2eResult, cluster bool) {
	var ok, hits, forwarded int
	var fwdLat, localLat []float64
	for _, s := range e2e.samples {
		if s.outcome != okOp {
			continue
		}
		ok++
		if s.hit {
			hits++
		}
		if s.forwarded {
			forwarded++
		}
		if !s.hit {
			if s.forwarded {
				fwdLat = append(fwdLat, ms(s.lat))
			} else {
				localLat = append(localLat, ms(s.lat))
			}
		}
	}
	vals["server.enqueue_wait_ms"] = e2e.executedMean(func(s sample) time.Duration { return s.enqueue })
	vals["server.execute_ms"] = e2e.executedMean(func(s sample) time.Duration { return s.execute })
	vals["server.cache_probe_ms"] = e2e.executedMean(func(s sample) time.Duration { return s.probe })
	vals["http.overhead_ms"] = e2e.executedMean(func(s sample) time.Duration { return s.lat - s.execute - s.enqueue - s.probe })
	vals["server.cache_hit_ratio"] = float64(hits) / float64(ok)
	vals["cluster.forwarded_share"] = float64(forwarded) / float64(ok)
	if cluster {
		vals["cluster.forward_ms"] = median(fwdLat) - median(localLat)
	}
	vals["client.retries"] = float64(e2e.retries)
	vals["server.rejected"] = float64(e2e.rejected)
}

// executedMean is the mean of f over successful operations that executed
// (missed the cache), in ms.
func (r *e2eResult) executedMean(f func(sample) time.Duration) float64 {
	var xs []float64
	for _, s := range r.samples {
		if s.outcome == okOp && !s.hit {
			xs = append(xs, ms(f(s)))
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return mean(xs)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
