package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a random connected graph from a quick-check seed.
func randomGraph(r *rand.Rand, maxN int) *Graph {
	n := 2 + r.Intn(maxN-1)
	b := NewBuilder(n)
	// Random spanning tree for connectivity.
	for v := 1; v < n; v++ {
		if err := b.AddEdge(v, r.Intn(v)); err != nil {
			panic(err)
		}
	}
	extra := r.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// Distances form a metric: symmetric and triangle-inequality-consistent.
func TestPropDistanceMetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 40)
		d := g.AllPairs()
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if d[u][v] != d[v][u] {
					return false
				}
				if u == v && d[u][v] != 0 {
					return false
				}
			}
		}
		// Spot-check triangle inequality on random triples.
		for i := 0; i < 50; i++ {
			a, bb, c := r.Intn(g.N()), r.Intn(g.N()), r.Intn(g.N())
			if d[a][c] > d[a][bb]+d[bb][c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Edge relaxation: adjacent vertices differ by at most 1 in BFS distance.
func TestPropBFSLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 50)
		src := r.Intn(g.N())
		dist := g.BFS(src)
		ok := true
		g.Edges(func(u, v int) {
			du, dv := dist[u], dist[v]
			if du > dv+1 || dv > du+1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// MultiBFS equals the pointwise minimum of per-source BFS distances, and
// parents always step one layer down.
func TestPropMultiBFSMinimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 40)
		k := 1 + r.Intn(4)
		srcs := make([]int, k)
		for i := range srcs {
			srcs[i] = r.Intn(g.N())
		}
		dist, root, parent := g.MultiBFS(srcs, -1)
		for v := 0; v < g.N(); v++ {
			want := Infinity
			for _, s := range srcs {
				if d := g.BFS(s)[v]; d < want {
					want = d
				}
			}
			if dist[v] != want {
				return false
			}
			if parent[v] >= 0 {
				if dist[parent[v]] != dist[v]-1 {
					return false
				}
				if root[parent[v]] != root[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Port numbering is a bijection consistent with the adjacency lists.
func TestPropPortBijection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 40)
		for v := 0; v < g.N(); v++ {
			seen := make(map[int]bool)
			for p := 0; p < g.Degree(v); p++ {
				u := g.Neighbor(v, p)
				if seen[u] || g.PortOf(v, u) != p {
					return false
				}
				seen[u] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BallSize is monotone in the radius and hits n at the eccentricity.
func TestPropBallMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 30)
		v := r.Intn(g.N())
		prev := 0
		for rad := int32(0); rad <= g.Eccentricity(v); rad++ {
			s := g.BallSize(v, rad)
			if s < prev {
				return false
			}
			prev = s
		}
		return prev == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropBuilderMatchesMapModel: under a random interleaving of Add,
// HasEdge and mid-stream emission, the Builder agrees with a
// map[[2]int32]bool model on every Add return, HasEdge probe and
// NumEdges, and the iterated edge list is sorted and exactly the
// model's set — before and after later additions to compacted buckets.
// Half the edges land in buckets 0 and 1, which grow to several runs.
func TestPropBuilderMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(150)
		b := NewBuilder(n)
		ref := map[[2]int32]bool{}
		matches := func() bool {
			prev := [2]int32{-1, -1}
			seen := 0
			for u, v := range b.All() {
				k := [2]int32{u, v}
				if !ref[k] || u < prev[0] || (u == prev[0] && v <= prev[1]) {
					t.Logf("iteration yields {%d,%d} out of order or not in model", u, v)
					return false
				}
				prev = k
				seen++
			}
			return seen == len(ref) && b.NumEdges() == len(ref)
		}
		ops := 1 + r.Intn(1500)
		for i := 0; i < ops; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if r.Intn(2) == 0 { // crowd two buckets so they carry and merge runs
				u = r.Intn(2)
			}
			if u == v {
				continue
			}
			k := [2]int32{int32(min(u, v)), int32(max(u, v))}
			switch op := r.Intn(20); {
			case op < 12: // Add, biased to dominate
				if b.Add(u, v) == ref[k] {
					t.Logf("Add(%d,%d) disagrees with model", u, v)
					return false
				}
				ref[k] = true
			case op < 19:
				if b.HasEdge(u, v) != ref[k] {
					t.Logf("HasEdge(%d,%d) disagrees with model", u, v)
					return false
				}
			default: // emit mid-stream: compacts every bucket
				if !matches() {
					return false
				}
			}
		}
		return matches()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
