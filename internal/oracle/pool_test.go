package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// goldenSpanner builds the gnp-256 golden-fixture spanner (the workload
// pinned by testdata/golden_spanners.json) through core.Build.
func goldenSpanner(t *testing.T, mode core.Mode) *graph.Graph {
	t.Helper()
	g := gen.GNP(256, 16.0/256, 256, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p, core.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res.Spanner
}

// refLevels precomputes exact BFS levels for every vertex — the
// sequential reference every pool answer is pinned against.
func refLevels(h *graph.Graph) [][]int32 {
	out := make([][]int32, h.N())
	for v := 0; v < h.N(); v++ {
		out[v] = h.BFS(v)
	}
	return out
}

func TestPoolMatchesSequentialReference(t *testing.T) {
	h := goldenSpanner(t, core.ModeCentralized)
	ref := refLevels(h)
	for _, reps := range []int{1, 3} {
		pool := NewPool(h, PoolOptions{Replicas: reps, CacheSources: 8})
		for u := 0; u < h.N(); u += 5 {
			for v := 0; v < h.N(); v += 7 {
				if got := pool.Dist(u, v); got != ref[u][v] {
					t.Fatalf("replicas=%d: Dist(%d,%d)=%d, reference %d", reps, u, v, got, ref[u][v])
				}
			}
		}
		for u := 0; u < h.N(); u += 31 {
			lv := pool.Sources(u)
			for v := range lv {
				if lv[v] != ref[u][v] {
					t.Fatalf("replicas=%d: Sources(%d)[%d]=%d, reference %d", reps, u, v, lv[v], ref[u][v])
				}
			}
		}
		pool.Close()
	}
}

// Batch answers must be bit-identical to single-query answers whichever
// internal path a group takes (cached read, amortized full BFS, or
// per-pair bidirectional).
func TestPoolBatchMatchesSingle(t *testing.T) {
	h := goldenSpanner(t, core.ModeCentralized)
	pool := NewPool(h, PoolOptions{Replicas: 2, CacheSources: 4})
	r := rand.New(rand.NewSource(7))
	queries := make([][2]int, 0, 600)
	for i := 0; i < 200; i++ { // big groups: amortized full BFS
		queries = append(queries, [2]int{i % 8, r.Intn(h.N())})
	}
	for i := 0; i < 200; i++ { // singleton groups: bidirectional path
		queries = append(queries, [2]int{r.Intn(h.N()), r.Intn(h.N())})
	}
	for i := 0; i < 200; i++ { // repeat of the hot sources: cached reads
		queries = append(queries, [2]int{i % 8, r.Intn(h.N())})
	}
	got := pool.PairsBatch(queries)
	single := NewPool(h, PoolOptions{Replicas: 1, CacheSources: -1})
	for i, q := range queries {
		if want := single.Dist(q[0], q[1]); got[i] != want {
			t.Fatalf("batch[%d]=%v: %d, single %d", i, q, got[i], want)
		}
	}
}

// The concurrency suite: 8 goroutines fire mixed Dist / Sources /
// PairsBatch queries at one shared pool under -race, and every answer
// is pinned bit-identical to the sequential reference over the golden
// spanner. Run across replica counts straddling the goroutine count.
func TestPoolConcurrentMixedQueriesBitIdentical(t *testing.T) {
	h := goldenSpanner(t, core.ModeCentralized)
	ref := refLevels(h)
	n := h.N()
	for _, reps := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("replicas-%d", reps), func(t *testing.T) {
			pool := NewPool(h, PoolOptions{Replicas: reps, CacheSources: 16})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for iter := 0; iter < 40; iter++ {
						switch iter % 3 {
						case 0:
							u, v := r.Intn(n), r.Intn(n)
							if got := pool.Dist(u, v); got != ref[u][v] {
								t.Errorf("worker %d: Dist(%d,%d)=%d, want %d", w, u, v, got, ref[u][v])
								return
							}
						case 1:
							u := r.Intn(n)
							lv := pool.Sources(u)
							for v := 0; v < n; v += 17 {
								if lv[v] != ref[u][v] {
									t.Errorf("worker %d: Sources(%d)[%d]=%d, want %d", w, u, v, lv[v], ref[u][v])
									return
								}
							}
						case 2:
							qs := make([][2]int, 24)
							for i := range qs {
								qs[i] = [2]int{r.Intn(n), r.Intn(n)}
							}
							got := pool.PairsBatch(qs)
							for i, q := range qs {
								if got[i] != ref[q[0]][q[1]] {
									t.Errorf("worker %d: batch %v=%d, want %d", w, q, got[i], ref[q[0]][q[1]])
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// Path must return a genuine spanner walk: consecutive vertices joined
// by spanner edges, length exactly dist+1, endpoints in place, and the
// reported distance bit-identical to Dist / the BFS reference. Checked
// over the golden spanner and over sparse (often disconnected) graphs.
func TestPoolPathValid(t *testing.T) {
	check := func(t *testing.T, h *graph.Graph, pool *Pool, u, v int, want int32) {
		t.Helper()
		path, d := pool.Path(u, v)
		if d != want {
			t.Fatalf("Path(%d,%d) dist=%d, reference %d", u, v, d, want)
		}
		if want == graph.Infinity {
			if path != nil {
				t.Fatalf("Path(%d,%d): non-nil path %v for disconnected pair", u, v, path)
			}
			return
		}
		if len(path) != int(want)+1 {
			t.Fatalf("Path(%d,%d): len %d, want dist+1 = %d", u, v, len(path), want+1)
		}
		if path[0] != int32(u) || path[len(path)-1] != int32(v) {
			t.Fatalf("Path(%d,%d): endpoints %d..%d", u, v, path[0], path[len(path)-1])
		}
		for i := 1; i < len(path); i++ {
			if !h.HasEdge(int(path[i-1]), int(path[i])) {
				t.Fatalf("Path(%d,%d): step %d-%d is not a spanner edge", u, v, path[i-1], path[i])
			}
		}
	}
	t.Run("golden", func(t *testing.T) {
		h := goldenSpanner(t, core.ModeCentralized)
		ref := refLevels(h)
		pool := NewPool(h, PoolOptions{Replicas: 2, CacheSources: 4})
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 400; i++ {
			u, v := r.Intn(h.N()), r.Intn(h.N())
			check(t, h, pool, u, v, ref[u][v])
		}
		check(t, h, pool, 17, 17, 0)
		if st := pool.Stats(); st.Paths != 401 {
			t.Errorf("Paths counter %d, want 401", st.Paths)
		}
	})
	t.Run("sparse", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			n := 50 + int(seed)*11
			g := gen.GNP(n, 2.0/float64(n), seed, false)
			pool := NewPool(g, PoolOptions{Replicas: 1, CacheSources: -1})
			for u := 0; u < n; u += 4 {
				lv := g.BFS(u)
				for v := 0; v < n; v += 3 {
					check(t, g, pool, u, v, lv[v])
				}
			}
		}
	})
}

// Property check for the bidirectional fast path: across random graphs
// (including disconnected ones), bidi must equal the full BFS distance
// for every sampled pair.
func TestPoolBidiMatchesBFS(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		n := 40 + int(seed)*13
		g := gen.GNP(n, 2.2/float64(n), seed, false) // sparse: often disconnected
		pool := NewPool(g, PoolOptions{Replicas: 1, CacheSources: -1})
		for u := 0; u < n; u += 3 {
			lv := g.BFS(u)
			for v := 0; v < n; v += 2 {
				if got := pool.Dist(u, v); got != lv[v] {
					t.Fatalf("seed %d: bidi(%d,%d)=%d, BFS %d", seed, u, v, got, lv[v])
				}
			}
		}
	}
}

// Answers are identical whichever mode built the spanner — the builds
// are bit-identical (golden fingerprints), so the query tier must not
// introduce any divergence of its own.
func TestPoolAnswersEngineIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed golden build in -short")
	}
	hc := goldenSpanner(t, core.ModeCentralized)
	hd := goldenSpanner(t, core.ModeDistributed)
	pc := NewPool(hc, PoolOptions{Replicas: 2})
	pd := NewPool(hd, PoolOptions{Replicas: 3})
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		u, v := r.Intn(hc.N()), r.Intn(hc.N())
		if pc.Dist(u, v) != pd.Dist(u, v) {
			t.Fatalf("modes disagree at (%d,%d): %d vs %d", u, v, pc.Dist(u, v), pd.Dist(u, v))
		}
	}
}

func TestPoolSourcesReturnsCopy(t *testing.T) {
	g := gen.Grid(8, 8)
	pool := NewPool(g, PoolOptions{Replicas: 1, CacheSources: 4})
	lv := pool.Sources(0)
	want := lv[63]
	lv[63] = -999
	if got := pool.Dist(0, 63); got != want {
		t.Errorf("mutating Sources result corrupted the cache: Dist=%d, want %d", got, want)
	}
	if again := pool.Sources(0); again[63] != want {
		t.Errorf("mutating Sources result corrupted later Sources: %d, want %d", again[63], want)
	}
}

// A pool over a built spanner rides the same contract: Sources hands
// out a copy, not the cache's backing array.
func TestOracleSourcesReturnsCopy(t *testing.T) {
	g := gen.Grid(8, 8)
	o, _, err := spannerPool(g, 0.5, 4, 0.45, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lv := o.Sources(0)
	want := lv[63]
	lv[63] = -999
	if got := o.Dist(0, 63); got != want {
		t.Errorf("mutating Sources result corrupted the cache: Dist=%d, want %d", got, want)
	}
}

func TestPoolSourceCacheBounds(t *testing.T) {
	g := gen.Grid(10, 10)
	pool := NewPool(g, PoolOptions{Replicas: 2, CacheSources: 3})
	for u := 0; u < 10; u++ {
		pool.Sources(u)
	}
	st := pool.Stats()
	if st.CachedSources > 3 {
		t.Errorf("cache admitted %d sources, capacity 3", st.CachedSources)
	}
	if st.CacheFills != int64(st.CachedSources) {
		t.Errorf("fills %d != cached %d", st.CacheFills, st.CachedSources)
	}
	// 10 Sources calls: 3 filled the cache, 7 ran uncached.
	if st.SourceRuns != 10 {
		t.Errorf("source runs %d, want 10", st.SourceRuns)
	}

	// Disabled cache: every point query is a miss, answers stay exact.
	nc := NewPool(g, PoolOptions{Replicas: 1, CacheSources: -1})
	if d := nc.Dist(0, 99); d != g.Distance(0, 99) {
		t.Errorf("uncached Dist=%d, want %d", d, g.Distance(0, 99))
	}
	if st := nc.Stats(); st.Misses != 1 || st.CachedSources != 0 {
		t.Errorf("disabled-cache stats %+v", st)
	}
}

// The pool owns no goroutines: a full create / query / close lifecycle
// must leave the goroutine count where it started.
func TestPoolLifecycleGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	g := gen.GNP(120, 0.08, 5, true)
	for i := 0; i < 3; i++ {
		pool := NewPool(g, PoolOptions{Replicas: 4, CacheSources: 8})
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < 50; q++ {
					pool.Dist((w*q)%120, (w+q*13)%120)
				}
			}(w)
		}
		wg.Wait()
		pool.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("pool lifecycle leaked goroutines: %d -> %d", before, after)
	}
}
