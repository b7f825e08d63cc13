package service

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"nearspan/internal/oracle"
)

// metrics is the server's operational counter set, exported in the
// Prometheus text exposition format by /metrics. Everything is a plain
// atomic — no client library — because the surface is a handful of
// counters and gauges and the format is trivially stable text.
type metrics struct {
	active    atomic.Int64 // builds running right now (gauge)
	done      atomic.Int64 // jobs finished with a spanner
	failed    atomic.Int64 // jobs finished with an error
	cancelled atomic.Int64 // jobs cancelled (client or drain)
	rejected  atomic.Int64 // submissions shed (queue full, draining)

	steps      atomic.Int64 // protocol steps completed
	rounds     atomic.Int64 // simulated rounds executed (rate() = rounds/sec)
	messages   atomic.Int64 // simulated messages sent
	builds     atomic.Int64 // builds attempted, rebuilds included (duration denominator)
	buildNanos atomic.Int64 // cumulative wall-clock build time

	rebuilds         atomic.Int64 // PATCH edge-delta rebuilds applied
	rebuildFallbacks atomic.Int64 // PATCH rebuilds of restored jobs, which build from scratch

	recoveredSnapshot   atomic.Int64 // boot recoveries served from a verified snapshot
	recoveredRebuild    atomic.Int64 // boot recoveries that rebuilt from journaled inputs
	recoveredRequeue    atomic.Int64 // interrupted jobs re-enqueued at boot
	recoveredTerminal   atomic.Int64 // failed/cancelled jobs restored at boot
	recoveredDropped    atomic.Int64 // journaled jobs whose spec no longer validates
	snapshotCorruptions atomic.Int64 // snapshots that failed verification at boot
	inputsMaterialized  atomic.Int64 // recovered jobs' input graphs built from the journal

	arenaHighWater atomic.Int64 // largest per-build arena footprint seen

	queries      atomic.Int64 // distance queries answered (single + batched)
	queryBatches atomic.Int64 // batch query requests served
	queryLat     latencyHist  // per-request query latency (p50/p99)
}

// latencyHist is a log2-bucketed latency histogram: bucket i counts
// observations whose nanosecond duration has bit length i, so observe
// is two atomic adds and quantiles resolve to within a factor of two —
// the right fidelity for an operational p50/p99 at query rates where a
// lock-free histogram must cost nanoseconds, not a mutex.
type latencyHist struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [40]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	ns := uint64(max(d.Nanoseconds(), 0))
	b := min(bits.Len64(ns), len(h.buckets)-1)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(ns))
}

// quantileSeconds returns the q-quantile (0 < q <= 1) in seconds as the
// upper bound of the bucket holding the q-th observation, or NaN with
// no observations.
func (h *latencyHist) quantileSeconds(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return float64(uint64(1)<<uint(i)) / 1e9
		}
	}
	return float64(uint64(1)<<uint(len(h.buckets)-1)) / 1e9
}

// observeQuery records one query request: n answered queries in d.
func (m *metrics) observeQuery(n int, batch bool, d time.Duration) {
	m.queries.Add(int64(n))
	if batch {
		m.queryBatches.Add(1)
	}
	m.queryLat.observe(d)
}

// highWater raises the arena high-water mark to b if larger.
func (m *metrics) highWater(b int64) {
	for {
		cur := m.arenaHighWater.Load()
		if b <= cur || m.arenaHighWater.CompareAndSwap(cur, b) {
			return
		}
	}
}

// render writes the exposition text. queueDepth, draining, the
// aggregated query-pool counters, and the persistence state are
// point-in-time server state supplied by the caller.
func (m *metrics) render(queueDepth int, draining bool, qp oracle.PoolStats, ps persistStats) string {
	var sb strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("spannerd_queue_depth", "Accepted jobs waiting for a build worker.", int64(queueDepth))
	gauge("spannerd_active_builds", "Builds running right now.", m.active.Load())
	d := int64(0)
	if draining {
		d = 1
	}
	gauge("spannerd_draining", "1 while the server is draining.", d)

	fmt.Fprintf(&sb, "# HELP spannerd_jobs_total Jobs by terminal state.\n# TYPE spannerd_jobs_total counter\n")
	fmt.Fprintf(&sb, "spannerd_jobs_total{state=\"done\"} %d\n", m.done.Load())
	fmt.Fprintf(&sb, "spannerd_jobs_total{state=\"failed\"} %d\n", m.failed.Load())
	fmt.Fprintf(&sb, "spannerd_jobs_total{state=\"cancelled\"} %d\n", m.cancelled.Load())
	fmt.Fprintf(&sb, "spannerd_jobs_total{state=\"rejected\"} %d\n", m.rejected.Load())

	counter("spannerd_steps_total", "Protocol steps completed across all builds.", m.steps.Load())
	counter("spannerd_rounds_total", "Simulated CONGEST rounds executed (rate() gives rounds/sec).", m.rounds.Load())
	counter("spannerd_messages_total", "Simulated messages sent across all builds.", m.messages.Load())
	gauge("spannerd_arena_high_water_bytes", "Largest per-build simulator arena footprint seen.", m.arenaHighWater.Load())

	fmt.Fprintf(&sb, "# HELP spannerd_build_seconds Cumulative build wall-clock time and count.\n# TYPE spannerd_build_seconds summary\n")
	fmt.Fprintf(&sb, "spannerd_build_seconds_sum %g\n", float64(m.buildNanos.Load())/1e9)
	fmt.Fprintf(&sb, "spannerd_build_seconds_count %d\n", m.builds.Load())

	counter("spannerd_rebuilds_total", "Edge-delta rebuilds applied (PATCH .../edges).", m.rebuilds.Load())
	counter("spannerd_rebuild_fallbacks_total",
		"PATCH rebuilds that ran a full build because the job carried no rebuild state (restored from a snapshot).",
		m.rebuildFallbacks.Load())

	// Durability: how jobs came back at the last boot, and whether the
	// store is still writable (0 = healthy, 1 = degraded read-only).
	fmt.Fprintf(&sb, "# HELP spannerd_recoveries_total Jobs recovered at boot, by mechanism.\n# TYPE spannerd_recoveries_total counter\n")
	fmt.Fprintf(&sb, "spannerd_recoveries_total{kind=\"snapshot\"} %d\n", m.recoveredSnapshot.Load())
	fmt.Fprintf(&sb, "spannerd_recoveries_total{kind=\"rebuild\"} %d\n", m.recoveredRebuild.Load())
	fmt.Fprintf(&sb, "spannerd_recoveries_total{kind=\"requeue\"} %d\n", m.recoveredRequeue.Load())
	fmt.Fprintf(&sb, "spannerd_recoveries_total{kind=\"terminal\"} %d\n", m.recoveredTerminal.Load())
	fmt.Fprintf(&sb, "spannerd_recoveries_total{kind=\"dropped\"} %d\n", m.recoveredDropped.Load())
	counter("spannerd_snapshot_corruptions_total",
		"Snapshots that failed checksum or fingerprint verification at boot (each cost a rebuild).",
		m.snapshotCorruptions.Load())
	counter("spannerd_inputs_materialized_total",
		"Input graphs of recovered jobs built from the journaled spec and deltas (first PATCH, re-enqueued build, or recovery rebuild).",
		m.inputsMaterialized.Load())
	if ps.enabled {
		gauge("spannerd_journal_bytes", "Size of the durable job journal.", ps.journalBytes)
		ro := int64(0)
		if ps.readOnly {
			ro = 1
		}
		gauge("spannerd_persistence_readonly", "1 once a persistence write error degraded the store (submissions shed).", ro)
	}

	// Query tier: rate(spannerd_queries_total) is the served qps; the
	// source-cache hit rate is 1 - misses/queries.
	counter("spannerd_queries_total", "Distance queries answered (single and batched).", m.queries.Load())
	counter("spannerd_query_batches_total", "Batch query requests served.", m.queryBatches.Load())
	counter("spannerd_query_cache_misses_total",
		"Point queries that missed the source cache and ran a bidirectional BFS.", qp.Misses)
	counter("spannerd_query_source_bfs_total",
		"Full single-source BFS runs in query workspaces (cache fills, Sources, batch groups).", qp.SourceRuns)
	counter("spannerd_query_paths_total", "Path queries answered (bidirectional BFS with parent tracking).", qp.Paths)
	counter("spannerd_query_cache_fills_total", "Source-cache fills across all job pools.", qp.CacheFills)
	gauge("spannerd_query_cached_sources", "Sources resident in job query caches.", int64(qp.CachedSources))
	fmt.Fprintf(&sb, "# HELP spannerd_query_seconds Query request latency (log2-bucketed quantiles).\n# TYPE spannerd_query_seconds summary\n")
	for _, q := range []float64{0.5, 0.99} {
		if v := m.queryLat.quantileSeconds(q); !math.IsNaN(v) {
			fmt.Fprintf(&sb, "spannerd_query_seconds{quantile=%q} %g\n", fmt.Sprintf("%g", q), v)
		}
	}
	fmt.Fprintf(&sb, "spannerd_query_seconds_sum %g\n", float64(m.queryLat.sumNs.Load())/1e9)
	fmt.Fprintf(&sb, "spannerd_query_seconds_count %d\n", m.queryLat.count.Load())
	return sb.String()
}
