package baseline

import (
	"fmt"

	"nearspan/internal/cluster"
	"nearspan/internal/graph"
)

// EP01Result is the outcome of the centralized Elkin–Peleg construction.
type EP01Result struct {
	Spanner *graph.Graph
	Phases  []EP01Phase
	Beta    int32
	// EpsPrime is the rescaled multiplicative slack for EP01's radii.
	EpsPrime float64
}

// EP01Phase mirrors the per-phase counters.
type EP01Phase struct {
	Index       int
	Deg         int
	Delta       int32
	Clusters    int
	Popular     int
	Superclst   int // superclusters formed
	Unclustered int
	EdgesSC     int
	EdgesIC     int
}

// BuildEP01 runs the centralized deterministic superclustering-and-
// interconnection construction. Superclustering is by repeated exact
// scans over the *remaining* clusters: while some unassigned center has
// at least deg_i unassigned centers within δ_i, the smallest such center
// absorbs all unassigned clusters within δ_i. Every supercluster
// therefore absorbs > deg_i clusters, giving the |P_{i+1}| <=
// |P_i|/deg_i decay directly — the invariant the distributed algorithms
// must approximate with sampling or ruling sets.
//
// EP01 runs on the same Schedule as EN17: a picked center absorbs its
// δ_i-neighborhood directly, so its radii obey the same recurrence, and
// ablation A1 prints the same R_1, R_2 and β for both. EP01's edge over
// EN17 is the deterministic |P_{i+1}| <= |P_i|/deg_i decay, not a
// tighter radius.
func BuildEP01(g *graph.Graph, p *Schedule) (*EP01Result, error) {
	if p.N != g.N() {
		return nil, fmt.Errorf("baseline: EP01 params n=%d, graph n=%d", p.N, g.N())
	}
	res := &EP01Result{Beta: p.Beta(), EpsPrime: p.EpsPrime()}
	h := graph.NewBuilder(g.N())
	centers := allVertices(g.N()) // S_i; S_{i+1} is the picks
	superclustered := cluster.NewAssignment(g.N())

	for i := 0; i <= p.L; i++ {
		ph := EP01Phase{Index: i, Deg: p.Deg[i], Delta: p.Delta[i], Clusters: len(centers)}
		superclustered.Reset()
		next := centers

		if i < p.L && len(centers) > 0 {
			// Pairwise near-center lists, one bounded BFS per center.
			near := make([][]int, g.N())
			for _, c := range centers {
				dist := g.BFSBounded(c, p.Delta[i])
				for _, other := range centers {
					if other != c && dist[other] <= p.Delta[i] {
						near[c] = append(near[c], other)
					}
				}
				if len(near[c]) >= p.Deg[i] {
					ph.Popular++
				}
			}

			remainingNear := func(c int) int {
				k := 0
				for _, o := range near[c] {
					if !superclustered.Has(o) {
						k++
					}
				}
				return k
			}

			// The picks come out ascending: each scan restarts at the
			// smallest center, and an unpicked center's remaining count
			// only falls, so no center below a pick qualifies later.
			var picks []int
			for {
				// Smallest unassigned center with >= deg_i unassigned
				// near centers.
				pick := -1
				for _, c := range centers {
					if !superclustered.Has(c) && remainingNear(c) >= p.Deg[i] {
						pick = c
						break
					}
				}
				if pick < 0 {
					break
				}
				ph.Superclst++
				picks = append(picks, pick)
				dist, _, parent := g.MultiBFS([]int{pick}, p.Delta[i])
				superclustered.Set(pick)
				for _, other := range near[pick] {
					if superclustered.Has(other) || dist[other] == graph.Infinity {
						continue
					}
					superclustered.Set(other)
					for x := other; x != pick; {
						px := int(parent[x])
						if h.Add(x, px) {
							ph.EdgesSC++
						}
						x = px
					}
				}
			}
			next = picks
		}

		ph.EdgesIC = en17Interconnect(g, centers, superclustered, p.Delta[i], h)
		ph.Unclustered = len(centers) - superclustered.Len()
		res.Phases = append(res.Phases, ph)
		centers = next
	}
	res.Spanner = h.Build()
	return res, nil
}
