package baseline

import (
	"fmt"
	"math"

	"nearspan/internal/cluster"
	"nearspan/internal/graph"
	"nearspan/internal/params"
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

// EP01Params derives the schedule of the centralized construction. The
// sequential scans let a supercluster center absorb everything within
// δ_i directly, so the radius recurrence is the tightest of the three
// superclustering variants:
//
//	R_{i+1} = δ_i + R_i  with superclusters built around *popular
//	centers themselves* (not ruling-set survivors), one scan at a time.
//
// This is the existential benchmark: β_EP ≈ ε^{-ℓ} over these radii is
// what the distributed algorithms give away (EN17 a little, the
// deterministic CONGEST algorithm a (1/ρ̂) factor per phase).
type EP01Params struct {
	Eps   float64
	Kappa int
	Rho   float64 // used only for the shared phase count ℓ
	N     int
	L     int
	Deg   []int
	Delta []int32
	R     []int32
}

// NewEP01Params validates and derives the schedule.
func NewEP01Params(eps float64, kappa int, rho float64, n int) (*EP01Params, error) {
	base, err := params.New(eps, kappa, rho, n)
	if err != nil {
		return nil, err
	}
	p := &EP01Params{Eps: eps, Kappa: kappa, Rho: rho, N: n, L: base.L, Deg: base.Deg}
	p.R = make([]int32, p.L+2)
	p.Delta = make([]int32, p.L+1)
	for i := 0; i <= p.L; i++ {
		p.Delta[i] = int32(math.Ceil(math.Pow(1/eps, float64(i)))) + 2*p.R[i]
		p.R[i+1] = p.Delta[i] + p.R[i]
	}
	return p, nil
}

// Beta is ε^{-ℓ} for EP01's schedule.
func (p *EP01Params) Beta() int32 {
	return int32(math.Ceil(math.Pow(1/p.Eps, float64(p.L)) - 1e-9))
}

// EpsPrime mirrors the rescaling shape for EP01's radii.
func (p *EP01Params) EpsPrime() float64 {
	return 30 * p.Eps * float64(p.L)
}

// BuildEP01 runs the centralized deterministic superclustering-and-
// interconnection construction. Superclustering is by repeated exact
// scans over the *remaining* clusters: while some unassigned center has
// at least deg_i unassigned centers within δ_i, the smallest such center
// absorbs all unassigned clusters within δ_i. Every supercluster
// therefore absorbs > deg_i clusters, giving the |P_{i+1}| <=
// |P_i|/deg_i decay directly — the invariant the distributed algorithms
// must approximate with sampling or ruling sets.
func BuildEP01(g *graph.Graph, p *EP01Params) (*EP01Result, error) {
	if p.N != g.N() {
		return nil, fmt.Errorf("baseline: EP01 params n=%d, graph n=%d", p.N, g.N())
	}
	res := &EP01Result{Beta: p.Beta(), EpsPrime: p.EpsPrime()}
	h := graph.NewBuilder(g.N())
	cur := cluster.Singletons(g.N())
	superclustered := cluster.NewAssignment(g.N())
	assignment := cluster.NewAssignment(g.N())

	for i := 0; i <= p.L; i++ {
		ph := EP01Phase{Index: i, Deg: p.Deg[i], Delta: p.Delta[i], Clusters: cur.Len()}
		centers := cur.Centers()
		superclustered.Reset()
		var next *cluster.Collection

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

			assignment.Reset()
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
				dist, _, parent := g.MultiBFS([]int{pick}, p.Delta[i])
				assignment.Set(pick, int32(pick))
				superclustered.Set(pick, 1)
				for _, other := range near[pick] {
					if superclustered.Has(other) || dist[other] == graph.Infinity {
						continue
					}
					assignment.Set(other, int32(pick))
					superclustered.Set(other, 1)
					for x := other; x != pick; {
						px := int(parent[x])
						if h.Add(x, px) {
							ph.EdgesSC++
						}
						x = px
					}
				}
			}
			var err error
			next, err = cur.Merge(g.N(), assignment)
			if err != nil {
				return nil, fmt.Errorf("baseline: EP01 phase %d merge: %w", i, err)
			}
		}

		ph.EdgesIC, _ = en17Interconnect(g, centers, superclustered, p.Delta[i], h)
		ph.Unclustered = len(centers) - superclustered.Len()
		res.Phases = append(res.Phases, ph)
		if next != nil {
			cur = next
		}
	}
	res.Spanner = h.Build()
	return res, nil
}
