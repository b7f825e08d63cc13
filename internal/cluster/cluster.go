// Package cluster provides the cluster bookkeeping of the spanner
// construction: collections P_i of disjoint clusters with designated
// centers (paper §2.1) kept as a per-vertex center column, the
// per-phase partitions U_i of unsuperclustered clusters, and the
// invariant checks of Lemma 2.3 / Corollary 2.5.
//
// The construction itself carries only the center lists S_i; it builds
// collections for verification and rendering (core.Options.KeepClusters).
package cluster

import (
	"fmt"

	"nearspan/internal/graph"
)

// Cluster is a set of vertices centered around Center. Members always
// contains the center and is kept sorted.
type Cluster struct {
	Center  int
	Members []int32
}

// Collection is a set of vertex-disjoint clusters, the paper's P_i, as a
// center column: Center[v] is the center of v's cluster, or -1 if v is
// in none. Every center is its own center.
type Collection struct {
	Center []int32
}

// Singletons returns P_0: every vertex is its own cluster.
func Singletons(n int) *Collection {
	center := make([]int32, n)
	for v := range center {
		center[v] = int32(v)
	}
	return &Collection{Center: center}
}

// Centers returns the ascending list of cluster centers (the paper's S_i).
func (c *Collection) Centers() []int {
	var out []int
	for v, x := range c.Center {
		if int(x) == v {
			out = append(out, v)
		}
	}
	return out
}

// Len returns the number of clusters.
func (c *Collection) Len() int { return len(c.Centers()) }

// Clusters returns the member lists, ordered by center, each ascending.
func (c *Collection) Clusters() []Cluster {
	idx := make([]int32, len(c.Center))
	var out []Cluster
	for v, x := range c.Center {
		if int(x) == v {
			idx[v] = int32(len(out))
			out = append(out, Cluster{Center: v})
		}
	}
	for v, x := range c.Center {
		if x >= 0 {
			cl := &out[idx[x]]
			cl.Members = append(cl.Members, int32(v))
		}
	}
	return out
}

// Next returns P_{i+1}: the cluster of every center x with root[x] >= 0
// joins the supercluster centered at root[x]; the other clusters are
// dropped. Each root must be a center with root[r] = r.
func (c *Collection) Next(root []int64) *Collection {
	center := make([]int32, len(c.Center))
	for v, x := range c.Center {
		center[v] = -1
		if x >= 0 {
			center[v] = int32(root[x])
		}
	}
	return &Collection{Center: center}
}

// Without returns the clusters whose centers are not in drop: the
// paper's U_i, with drop the superclustered centers.
func (c *Collection) Without(drop *Assignment) *Collection {
	center := make([]int32, len(c.Center))
	for v, x := range c.Center {
		center[v] = -1
		if x >= 0 && !drop.Has(int(x)) {
			center[v] = x
		}
	}
	return &Collection{Center: center}
}

// Radius returns Rad(C) measured in the subgraph h: the maximum h-distance
// from the center to any member (paper §2.1 defines Rad in H). Returns -1
// if some member is unreachable from the center within h.
func Radius(h *graph.Graph, cl Cluster) int32 {
	dist := h.BFS(cl.Center)
	var rad int32
	for _, m := range cl.Members {
		d := dist[m]
		if d == graph.Infinity {
			return -1
		}
		if d > rad {
			rad = d
		}
	}
	return rad
}

// MaxRadius returns Rad(P) = max over clusters of Radius, or -1 if any
// cluster is disconnected in h.
func MaxRadius(h *graph.Graph, col *Collection) int32 {
	var rad int32
	for _, cl := range col.Clusters() {
		r := Radius(h, cl)
		if r < 0 {
			return -1
		}
		if r > rad {
			rad = r
		}
	}
	return rad
}

// VerifyPartition checks that the given collections are well formed,
// mutually disjoint, and together cover exactly the vertex set [0, n) —
// Corollary 2.5 for the U_0, ..., U_ℓ sequence.
func VerifyPartition(n int, cols []*Collection) error {
	seen := make([]int, n) // count of appearances
	for ci, col := range cols {
		if len(col.Center) != n {
			return fmt.Errorf("cluster: collection %d spans %d vertices, want %d", ci, len(col.Center), n)
		}
		for v, x := range col.Center {
			if x < 0 {
				continue
			}
			if int(x) >= n || col.Center[x] != x {
				return fmt.Errorf("cluster: collection %d puts %d under %d, which is not a center", ci, v, x)
			}
			seen[v]++
		}
	}
	for v, k := range seen {
		if k != 1 {
			return fmt.Errorf("cluster: vertex %d covered %d times", v, k)
		}
	}
	return nil
}
