// Package oracle is the query tier over a near-additive spanner: an
// approximate distance oracle, the application that motivated
// near-additive spanners in the first place (almost-shortest-paths
// computation, [Elk01/Elk05], and distance oracles [TZ01/RTZ05] in the
// paper's citations).
//
// A Pool answers distance queries with BFS over the spanner H instead of
// the input graph G. Because H has O(β·n^{1+1/κ}) edges, a query costs
// O(|E_H|) instead of O(|E_G|) — on dense graphs an order-of-magnitude
// less traversal work — while every answer carries the paper's guarantee
//
//	d_G(u,v) <= Dist(u,v) <= alpha·d_G(u,v) + beta,
//
// with (alpha, beta) from the spanner's params.Params.Guarantee. The
// package knows nothing of how the spanner was built.
package oracle

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"

	"nearspan/internal/graph"
)

// PoolOptions configure a Pool.
type PoolOptions struct {
	// Replicas is the number of independent BFS workspaces; queries
	// beyond it queue on a replica lock (default GOMAXPROCS).
	Replicas int
	// CacheSources bounds the shared source-level cache (default 64;
	// negative disables it). Each cached source costs 4n bytes.
	CacheSources int
}

// Pool is the high-QPS read path over an immutable spanner: N replicas,
// each owning a preallocated flat BFS workspace, fan queries out over
// the shared CSR — the spanner is never written after build, so sharing
// it needs no synchronization at all. A shared, once-filled source
// cache answers queries for hot sources with a single atomic load plus
// an array read; point queries that miss it run a bidirectional BFS in
// a replica workspace; PairsBatch groups a batch by source so one BFS
// serves every query sharing it.
//
// All methods are safe for concurrent use, and answers are exact BFS
// distances in the spanner — bit-identical regardless of replica
// count, cache state, or whether a query went through Dist, Sources,
// or PairsBatch.
type Pool struct {
	g     *graph.Graph
	reps  []*replica
	next  atomic.Uint32
	cache *sourceCache

	// Slow-path counters only: the cached-read fast path carries zero
	// instrumentation so its cost stays at a few nanoseconds.
	misses     atomic.Int64 // point queries answered by bidirectional BFS
	sourceRuns atomic.Int64 // full single-source BFS runs in a workspace
	batches    atomic.Int64 // PairsBatch calls
	paths      atomic.Int64 // Path calls
}

// PoolStats is a point-in-time snapshot of a pool's counters.
type PoolStats struct {
	// Misses counts point queries that fell through the source cache to
	// a bidirectional BFS; the service derives the cache hit rate as
	// 1 - Misses/Queries with its own request counter.
	Misses int64
	// SourceRuns counts full single-source BFS executions (cache fills,
	// uncached Sources calls, and batch groups large enough to amortize
	// one).
	SourceRuns int64
	// Batches counts PairsBatch calls.
	Batches int64
	// Paths counts Path calls (each runs a bidirectional BFS).
	Paths int64
	// CacheFills and CachedSources describe the shared source cache.
	CacheFills    int64
	CachedSources int
}

// batchBFSAmortize is the group size at which PairsBatch switches from
// per-pair bidirectional BFS to one full BFS shared by the group.
const batchBFSAmortize = 4

// NewPool builds a query pool over an immutable spanner. The spanner
// must not be mutated afterwards (graph.Graph is immutable by
// construction). Workspace memory (4 level/stamp arrays per replica) is
// allocated lazily on each replica's first query, so attaching a pool
// to every completed build job is cheap until the job is queried.
func NewPool(spanner *graph.Graph, opts PoolOptions) *Pool {
	n := opts.Replicas
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c := opts.CacheSources
	switch {
	case c == 0:
		c = 64
	case c < 0:
		c = 0
	}
	p := &Pool{g: spanner, reps: make([]*replica, n), cache: newSourceCache(spanner.N(), c)}
	for i := range p.reps {
		p.reps[i] = &replica{g: spanner}
	}
	return p
}

// Spanner returns the graph the pool answers queries over.
func (p *Pool) Spanner() *graph.Graph { return p.g }

// Replicas returns the number of replica workspaces.
func (p *Pool) Replicas() int { return len(p.reps) }

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Misses:        p.misses.Load(),
		SourceRuns:    p.sourceRuns.Load(),
		Batches:       p.batches.Load(),
		Paths:         p.paths.Load(),
		CacheFills:    p.cache.fills.Load(),
		CachedSources: p.cache.cached(),
	}
}

// Close releases the replica workspaces and the source cache. The pool
// owns no goroutines, so Close is purely a memory release; using the
// pool after Close panics.
func (p *Pool) Close() {
	p.reps = nil
	p.cache = &sourceCache{}
}

// acquire hands out a replica: an atomic round-robin pick, then a
// TryLock cascade so a query never waits behind a busy replica while an
// idle one exists. Only when every replica is busy does it block.
func (p *Pool) acquire() *replica {
	i := int(p.next.Add(1) - 1)
	n := len(p.reps)
	for k := 0; k < n; k++ {
		r := p.reps[(i+k)%n]
		if r.mu.TryLock() {
			return r
		}
	}
	r := p.reps[i%n]
	r.mu.Lock()
	return r
}

// Dist returns the exact spanner distance from u to v (graph.Infinity
// if disconnected). Hot path: if either endpoint is a cached source the
// answer is one atomic load and one array read; otherwise a
// bidirectional BFS runs in a replica workspace with zero allocations
// after warmup.
func (p *Pool) Dist(u, v int) int32 {
	if lv := p.cache.get(u); lv != nil {
		return lv[v]
	}
	if lv := p.cache.get(v); lv != nil {
		return lv[u]
	}
	p.misses.Add(1)
	r := p.acquire()
	d := r.bidi(u, v)
	r.mu.Unlock()
	return d
}

// Path returns one exact shortest path from u to v in the spanner —
// both endpoints inclusive, len(path) = dist+1 — and its length. A nil
// path (distance graph.Infinity) means the endpoints are disconnected.
// The route is reconstructed from the parents a bidirectional BFS
// records in a replica workspace; the reported distance is bit-identical
// to Dist. The slice is the caller's to keep.
func (p *Pool) Path(u, v int) ([]int32, int32) {
	p.paths.Add(1)
	r := p.acquire()
	path, d := r.path(u, v)
	r.mu.Unlock()
	return path, d
}

// Sources returns the exact spanner distances from u to every vertex.
// The slice is the caller's to keep. The source is admitted to the
// shared cache if capacity remains, so subsequent queries from u hit
// the fast path.
func (p *Pool) Sources(u int) []int32 {
	if lv := p.cache.get(u); lv != nil {
		return slices.Clone(lv)
	}
	if lv := p.cache.fill(u, p.computeLevels); lv != nil {
		return slices.Clone(lv)
	}
	return p.computeLevels(u)
}

// computeLevels runs a full BFS from u in a replica workspace and
// materializes the dense level slice.
func (p *Pool) computeLevels(u int) []int32 {
	p.sourceRuns.Add(1)
	r := p.acquire()
	r.bfsFull(u)
	lv := r.materialize()
	r.mu.Unlock()
	return lv
}

// PairsBatch answers a batch of (u, v) queries, grouping by source to
// amortize BFS work: cached sources are read directly, groups of at
// least batchBFSAmortize queries share one full BFS in a workspace
// (admitting the source to the cache when capacity remains — batch
// sources are hot by definition), and stragglers fall back to the
// bidirectional point path. The result is allocated once up front, in
// query order.
func (p *Pool) PairsBatch(queries [][2]int) []int32 {
	p.batches.Add(1)
	out := make([]int32, len(queries))
	if len(queries) == 0 {
		return out
	}
	idx := make([]int, len(queries))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(queries[a][0], queries[b][0]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i := 0; i < len(idx); {
		src := queries[idx[i]][0]
		j := i
		for j < len(idx) && queries[idx[j]][0] == src {
			j++
		}
		group := idx[i:j]
		if lv := p.cache.get(src); lv != nil {
			for _, q := range group {
				out[q] = lv[queries[q][1]]
			}
		} else if len(group) >= batchBFSAmortize {
			if lv := p.cache.fill(src, p.computeLevels); lv != nil {
				for _, q := range group {
					out[q] = lv[queries[q][1]]
				}
			} else {
				p.sourceRuns.Add(1)
				r := p.acquire()
				r.bfsFull(src)
				for _, q := range group {
					out[q] = r.fwd.get(int32(queries[q][1]))
				}
				r.mu.Unlock()
			}
		} else {
			p.misses.Add(int64(len(group)))
			r := p.acquire()
			for _, q := range group {
				out[q] = r.bidi(src, queries[q][1])
			}
			r.mu.Unlock()
		}
		i = j
	}
	return out
}
