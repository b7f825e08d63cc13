// Distoracle: answer approximate shortest-path queries through the
// spanner instead of the full graph — the application that motivated
// near-additive spanners (almost-shortest-paths computation).
//
// The oracle preprocesses the graph once; each query then runs BFS over
// the sparse spanner, traversing a fraction of the edges, and the answer
// carries the (1+eps', beta) guarantee. The spanner is immutable after
// the build, so the oracle's query pool fans concurrent queries over
// lock-free read replicas.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"nearspan"
)

func main() {
	// A dense social-ish graph: 1500 vertices, ~45k edges.
	g := nearspan.GNP(1500, 0.04, 77, true)
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	// Preprocess on the real CONGEST protocol stack; the simulator fans
	// its heavy rounds out across all cores.
	start := time.Now()
	res, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
		Mode: nearspan.DistributedMode,
	})
	if err != nil {
		log.Fatal(err)
	}
	o := nearspan.NewOraclePool(res.Spanner, nearspan.OraclePoolOptions{CacheSources: 64})
	alpha, beta := res.Params.Guarantee()
	fmt.Printf("preprocessing: %v; spanner %d edges (saves %d per full-graph BFS); guarantee (%.1f, %d)\n",
		time.Since(start).Round(time.Millisecond), res.EdgeCount(), g.M()-res.EdgeCount(), alpha, beta)

	// The oracle is the concurrent query tier: replicas share the
	// immutable spanner, hot sources are cached once and read lock-free,
	// point queries run a bidirectional BFS in a preallocated workspace.
	//
	// Batch queries: 16 hot sources, so the grouped
	// path answers each group from one shared BFS and admits the sources
	// to the cache for the point queries below.
	queries := make([][2]int, 0, 1000)
	for i := 0; i < 1000; i++ {
		queries = append(queries, [2]int{(i % 16) * 90, (i*53 + 11) % g.N()})
	}
	start = time.Now()
	answers := o.PairsBatch(queries)
	elapsed := time.Since(start)

	// Measure the answers' real error on a sample.
	worstAdd, checked := int32(0), 0
	for i := 0; i < len(queries); i += 25 {
		exact := g.Distance(queries[i][0], queries[i][1])
		if add := answers[i] - exact; add > worstAdd {
			worstAdd = add
		}
		checked++
	}
	fmt.Printf("1000 queries in %v; sampled %d against exact BFS: worst additive error %d\n",
		elapsed.Round(time.Microsecond), checked, worstAdd)
	fmt.Printf("example answers: d(%d,%d)=%d, d(%d,%d)=%d\n",
		queries[0][0], queries[0][1], answers[0], queries[1][0], queries[1][1], answers[1])

	// Concurrent point queries: 8 goroutines hammer the shared oracle; the
	// answers are exact spanner distances regardless of which replica or
	// cache path served them.
	start = time.Now()
	var total int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				o.Dist((w*997+i*37)%g.N(), (i*53+w)%g.N())
			}
		}(w)
	}
	wg.Wait()
	total = 8 * 2000
	st := o.Stats()
	fmt.Printf("%d concurrent point queries in %v (%d replicas, %d cached sources, %d bidi misses)\n",
		total, time.Since(start).Round(time.Microsecond), o.Replicas(), st.CachedSources, st.Misses)
}
