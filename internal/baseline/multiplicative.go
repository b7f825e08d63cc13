package baseline

import (
	"fmt"
	"math"
	"slices"

	"nearspan/internal/cluster"
	"nearspan/internal/graph"
	"nearspan/internal/rng"
)

// BuildBaswanaSen constructs a (2κ−1)-multiplicative spanner with
// expected O(κ·n^{1+1/κ}) edges by the Baswana–Sen (2007) clustering
// algorithm, the classic randomized construction that near-additive
// spanners are compared against.
//
// The algorithm runs κ−1 clustering iterations followed by a
// vertex-cluster joining step. In every iteration, each surviving
// cluster is sampled with probability n^{-1/κ}; a vertex adjacent to a
// sampled cluster joins it through one edge, and a vertex adjacent to no
// sampled cluster adds one edge to every neighboring cluster and
// retires.
func BuildBaswanaSen(g *graph.Graph, kappa int, seed uint64) (*graph.Graph, error) {
	if kappa < 1 {
		return nil, fmt.Errorf("baseline: BaswanaSen kappa=%d < 1", kappa)
	}
	n := g.N()
	r := rng.New(seed)
	spanner := graph.NewBuilder(n)

	// clusterOf[v] is the center of v's cluster, or -1 once v retires.
	clusterOf := make([]int32, n)
	for v := range clusterOf {
		clusterOf[v] = int32(v)
	}
	prob := 1.0
	if kappa > 1 {
		prob = math.Pow(float64(n), -1.0/float64(kappa))
	}

	// seen is the per-vertex neighboring-cluster dedupe, cleared per
	// vertex in O(1) by generation bump.
	seen := cluster.NewAssignment(n)

	for it := 0; it < kappa-1; it++ {
		// Sample surviving cluster centers (in sorted order, so the
		// seeded run is deterministic).
		isCenter := make([]bool, n)
		for _, c := range clusterOf {
			if c >= 0 {
				isCenter[c] = true
			}
		}
		var ids []int32
		for c := int32(0); c < int32(n); c++ {
			if isCenter[c] {
				ids = append(ids, c)
			}
		}
		sampled := make([]bool, n)
		for _, c := range ids {
			if r.Float64() < prob {
				sampled[c] = true
			}
		}

		next := slices.Clone(clusterOf)
		for v := 0; v < n; v++ {
			if clusterOf[v] < 0 || sampled[clusterOf[v]] {
				continue
			}
			// Join a neighboring sampled cluster if one exists.
			joined := false
			for _, w := range g.Neighbors(v) {
				cw := clusterOf[w]
				if cw >= 0 && sampled[cw] {
					spanner.Add(v, int(w))
					next[v] = cw
					joined = true
					break
				}
			}
			if joined {
				continue
			}
			// Otherwise add one edge per neighboring cluster and retire.
			seen.Reset()
			for _, w := range g.Neighbors(v) {
				cw := clusterOf[w]
				if cw < 0 || seen.Has(int(cw)) || cw == clusterOf[v] {
					continue
				}
				seen.Set(int(cw))
				spanner.Add(v, int(w))
			}
			next[v] = -1
		}
		clusterOf = next
	}

	// Final joining: every surviving vertex adds one edge to each
	// neighboring surviving cluster.
	for v := 0; v < n; v++ {
		if clusterOf[v] < 0 {
			continue
		}
		seen.Reset()
		for _, w := range g.Neighbors(v) {
			cw := clusterOf[w]
			if cw < 0 || cw == clusterOf[v] || seen.Has(int(cw)) {
				continue
			}
			seen.Set(int(cw))
			spanner.Add(v, int(w))
		}
	}
	return spanner.Build(), nil
}

// BuildGreedy constructs the Althöfer et al. greedy (2κ−1)-spanner:
// scan edges in a fixed order and keep an edge iff the current spanner
// distance between its endpoints exceeds 2κ−1. Size O(n^{1+1/κ}) by the
// girth argument; O(m·(n+m)) time, intended for verification-scale
// graphs.
func BuildGreedy(g *graph.Graph, kappa int) (*graph.Graph, error) {
	if kappa < 1 {
		return nil, fmt.Errorf("baseline: Greedy kappa=%d < 1", kappa)
	}
	limit := int32(2*kappa - 1)
	n := g.N()
	adj := make([][]int32, n) // incremental spanner adjacency

	// Scratch for the bounded BFS.
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	within := func(u, v int) bool {
		// BFS from u in the partial spanner, bounded by limit.
		queue = queue[:0]
		queue = append(queue, int32(u))
		dist[u] = 0
		found := false
		for head := 0; head < len(queue) && !found; head++ {
			x := queue[head]
			dx := dist[x]
			if dx == limit {
				continue
			}
			for _, w := range adj[x] {
				if dist[w] < 0 {
					dist[w] = dx + 1
					queue = append(queue, w)
					if int(w) == v {
						found = true
					}
				}
			}
		}
		for _, x := range queue {
			dist[x] = -1
		}
		return found
	}

	b := graph.NewBuilder(n)
	g.Edges(func(u, v int) {
		if within(u, v) {
			return
		}
		if err := b.AddEdge(u, v); err != nil {
			panic("baseline: greedy internal error: " + err.Error())
		}
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	})
	return b.Build(), nil
}
