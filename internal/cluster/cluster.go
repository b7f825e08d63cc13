// Package cluster provides the cluster bookkeeping of the spanner
// construction: collections P_i of disjoint clusters with designated
// centers (paper §2.1), the per-phase partitions U_i of unsuperclustered
// clusters, and the invariant checks of Corollary 2.5 / Lemma 2.6.
package cluster

import (
	"fmt"
	"slices"

	"nearspan/internal/graph"
)

// Cluster is a set of vertices centered around Center. Members always
// contains the center and is kept sorted.
type Cluster struct {
	Center  int
	Members []int32
}

// Collection is a set of vertex-disjoint clusters, the paper's P_i.
type Collection struct {
	Clusters []Cluster
	// Of maps a vertex to its cluster index in Clusters, or -1.
	Of []int32
}

// Singletons returns P_0: every vertex is its own cluster.
func Singletons(n int) *Collection {
	col := &Collection{
		Clusters: make([]Cluster, n),
		Of:       make([]int32, n),
	}
	for v := 0; v < n; v++ {
		col.Clusters[v] = Cluster{Center: v, Members: []int32{int32(v)}}
		col.Of[v] = int32(v)
	}
	return col
}

// NewCollection builds a collection from explicit clusters, validating
// disjointness and center membership.
func NewCollection(n int, clusters []Cluster) (*Collection, error) {
	col := &Collection{Clusters: clusters, Of: make([]int32, n)}
	for i := range col.Of {
		col.Of[i] = -1
	}
	for ci, c := range clusters {
		centerSeen := false
		for _, m := range c.Members {
			if m < 0 || int(m) >= n {
				return nil, fmt.Errorf("cluster: member %d out of range", m)
			}
			if col.Of[m] != -1 {
				return nil, fmt.Errorf("cluster: vertex %d in two clusters", m)
			}
			col.Of[m] = int32(ci)
			if int(m) == c.Center {
				centerSeen = true
			}
		}
		if !centerSeen {
			return nil, fmt.Errorf("cluster: center %d not among its members", c.Center)
		}
	}
	return col, nil
}

// Centers returns the sorted list of cluster centers (the paper's S_i).
func (c *Collection) Centers() []int {
	out := make([]int, len(c.Clusters))
	for i, cl := range c.Clusters {
		out[i] = cl.Center
	}
	slices.Sort(out)
	return out
}

// Len returns the number of clusters.
func (c *Collection) Len() int { return len(c.Clusters) }

// ClusterOf returns the cluster containing v, or nil.
func (c *Collection) ClusterOf(v int) *Cluster {
	idx := c.Of[v]
	if idx < 0 {
		return nil
	}
	return &c.Clusters[idx]
}

// IsCenter reports whether v is a cluster center.
func (c *Collection) IsCenter(v int) bool {
	cl := c.ClusterOf(v)
	return cl != nil && cl.Center == v
}

// Merge builds the next collection P_{i+1} from superclustering
// decisions: for each new center r (a ruling-set member), the new
// supercluster's members are the union of the member sets of the old
// clusters whose centers were assigned to r (including r's own old
// cluster). assignment maps old-center -> new-center; old centers not
// assigned were not superclustered.
//
// The merge is fully columnar: one dense pass groups old clusters by new
// center, and a single ascending vertex scan fills every new member list
// already sorted — no intermediate map[int][]int32, no member sort, and
// disjointness holds by construction (each old cluster lands in exactly
// one supercluster), so no revalidation pass either.
func (c *Collection) Merge(n int, assignment *Assignment) (*Collection, error) {
	// Reject assignments keyed by non-centers (same contract as before).
	for v := 0; v < n; v++ {
		if assignment.Has(v) && !c.IsCenter(v) {
			return nil, fmt.Errorf("cluster: %d is not a center", v)
		}
	}

	// newCenterOf[ci]: the new center old cluster ci merges into, or -1.
	newCenterOf := make([]int32, len(c.Clusters))
	var newCenters []int32
	isNew := make([]bool, n)
	for ci := range c.Clusters {
		nc, ok := assignment.Get(c.Clusters[ci].Center)
		if !ok {
			newCenterOf[ci] = -1
			continue
		}
		newCenterOf[ci] = nc
		if !isNew[nc] {
			isNew[nc] = true
			newCenters = append(newCenters, nc)
		}
	}
	slices.Sort(newCenters)

	// Index new clusters by their (sorted) centers and size them.
	idxOf := make([]int32, n)
	clusters := make([]Cluster, len(newCenters))
	for i, nc := range newCenters {
		idxOf[nc] = int32(i)
		clusters[i].Center = int(nc)
	}
	sizes := make([]int, len(newCenters))
	for ci := range c.Clusters {
		if nc := newCenterOf[ci]; nc >= 0 {
			sizes[idxOf[nc]] += len(c.Clusters[ci].Members)
		}
	}
	for i := range clusters {
		clusters[i].Members = make([]int32, 0, sizes[i])
	}

	// One ascending vertex scan fills each member list sorted for free.
	of := make([]int32, n)
	for i := range of {
		of[i] = -1
	}
	for v := 0; v < n; v++ {
		oldIdx := c.Of[v]
		if oldIdx < 0 {
			continue
		}
		nc := newCenterOf[oldIdx]
		if nc < 0 {
			continue
		}
		ni := idxOf[nc]
		clusters[ni].Members = append(clusters[ni].Members, int32(v))
		of[v] = ni
	}

	// Every new center must be among its own members (it is iff its own
	// old cluster was assigned to it) — the invariant NewCollection used
	// to enforce.
	for i := range clusters {
		if of[clusters[i].Center] != int32(i) {
			return nil, fmt.Errorf("cluster: center %d not among its members", clusters[i].Center)
		}
	}
	return &Collection{Clusters: clusters, Of: of}, nil
}

// Subset returns the sub-collection of clusters whose centers satisfy
// keep (the paper's U_i, with keep = "not superclustered").
func (c *Collection) Subset(n int, keep func(center int) bool) (*Collection, error) {
	var clusters []Cluster
	for _, cl := range c.Clusters {
		if keep(cl.Center) {
			clusters = append(clusters, cl)
		}
	}
	return NewCollection(n, clusters)
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
	for _, cl := range col.Clusters {
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

// VerifyPartition checks that the given collections are mutually disjoint
// and together cover exactly the vertex set [0, n) — Corollary 2.5 for
// the U_0, ..., U_ℓ sequence.
func VerifyPartition(n int, cols []*Collection) error {
	seen := make([]int, n) // count of appearances
	for ci, col := range cols {
		for _, cl := range col.Clusters {
			for _, m := range cl.Members {
				if m < 0 || int(m) >= n {
					return fmt.Errorf("cluster: collection %d member %d out of range", ci, m)
				}
				seen[m]++
			}
		}
	}
	for v, k := range seen {
		if k != 1 {
			return fmt.Errorf("cluster: vertex %d covered %d times", v, k)
		}
	}
	return nil
}
