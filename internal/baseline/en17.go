// Package baseline implements the comparison algorithms of the paper's
// Tables 1 and 2 that admit a full implementation at laptop scale:
//
//   - EN17: the randomized CONGEST near-additive spanner of Elkin &
//     Neiman (SODA 2017) — the algorithm the paper derandomizes. Its
//     superclustering samples cluster centers instead of computing a
//     ruling set.
//   - EP01: the centralized deterministic superclustering-and-
//     interconnection construction of Elkin & Peleg (STOC 2001), with
//     exact sequential scans (no distributed overheads), giving the
//     existential β benchmark.
//   - Baswana–Sen: the classic randomized (2κ−1)-multiplicative spanner,
//     the traditional comparison point that near-additive spanners
//     improve on for long distances.
//   - Greedy: the Althöfer et al. greedy (2κ−1)-spanner, the size-
//     optimal multiplicative reference.
//
// The remaining rows of Table 2 (Elk05, EZ06, TZ06, DGP07, DGPV08,
// DGPV09, Pet09, Pet10, ABP17) are reported analytically by the
// experiment harness: their published bounds with O-constants = 1 (see
// internal/experiments and README.md, "Command-line tools").
package baseline

import (
	"fmt"
	"math"

	"nearspan/internal/cluster"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/rng"
)

// EN17Result is the outcome of the EN17 construction.
type EN17Result struct {
	Spanner *graph.Graph
	// Phases records per-phase cluster counts (|P_i|, sampled, U_i).
	Phases []EN17Phase
	// ScheduledRounds charges EN17's protocol schedule: per phase, the
	// sampled-center BFS (δ_i rounds) plus the interconnection
	// exploration (deg_i·δ_i rounds, as in the randomized Bellman-Ford
	// step it replaces; EN17's extra log n factor shows up in the
	// exploration cap, see below).
	ScheduledRounds int
	// Beta is the additive term implied by EN17's (smaller) radius
	// growth: β_EN = ε^{-ℓ} over its own radius sequence.
	Beta int32
	// EpsPrime is the rescaled multiplicative slack for EN17's radii.
	EpsPrime float64
}

// EN17Phase mirrors core.PhaseStats for the randomized construction.
type EN17Phase struct {
	Index       int
	Deg         int
	Delta       int32
	Clusters    int
	Sampled     int
	Unclustered int
	EdgesSC     int
	EdgesIC     int
}

// EN17Params derives the EN17 phase schedule. The phase count and degree
// sequence match the deterministic algorithm (the paper keeps both "as
// in [EN17]"); the radius recurrence differs: a sampled center grows its
// supercluster by a BFS of depth δ_i directly, so
//
//	R_{i+1} = δ_i + R_i = ε^{-i} + 3R_i        (no 1/ρ̂ inflation)
//
// which is exactly why β_EN is smaller than the deterministic β — the
// quantity the paper calls "slightly inferior" (§2.1). The experiment
// harness reports the two β side by side (ablation A1).
type EN17Params struct {
	Eps   float64
	Kappa int
	Rho   float64
	N     int
	L     int
	I0    int
	Deg   []int
	Delta []int32
	R     []int32
}

// NewEN17Params validates and derives the schedule.
func NewEN17Params(eps float64, kappa int, rho float64, n int) (*EN17Params, error) {
	base, err := params.New(eps, kappa, rho, n)
	if err != nil {
		return nil, err
	}
	p := &EN17Params{Eps: eps, Kappa: kappa, Rho: rho, N: n, L: base.L, I0: base.I0, Deg: base.Deg}
	p.R = make([]int32, p.L+2)
	p.Delta = make([]int32, p.L+1)
	for i := 0; i <= p.L; i++ {
		p.Delta[i] = int32(math.Ceil(math.Pow(1/eps, float64(i)))) + 2*p.R[i]
		p.R[i+1] = p.Delta[i] + p.R[i]
	}
	return p, nil
}

// Beta is ε^{-ℓ} for EN17's schedule.
func (p *EN17Params) Beta() int32 {
	return int32(math.Ceil(math.Pow(1/p.Eps, float64(p.L)) - 1e-9))
}

// EpsPrime mirrors the §2.4.4 rescaling shape for EN17's radii: the
// segment analysis pays O(ε·i) per phase without the 1/ρ̂ factor.
func (p *EN17Params) EpsPrime() float64 {
	return 30 * p.Eps * float64(p.L)
}

// BuildEN17 constructs the EN17 spanner with the given seed. The
// construction is centralized but makes exactly the decisions of the
// distributed algorithm; ScheduledRounds charges its round budget.
func BuildEN17(g *graph.Graph, p *EN17Params, seed uint64) (*EN17Result, error) {
	if p.N != g.N() {
		return nil, fmt.Errorf("baseline: EN17 params n=%d, graph n=%d", p.N, g.N())
	}
	res := &EN17Result{Beta: p.Beta(), EpsPrime: p.EpsPrime()}
	h := graph.NewBuilder(g.N())
	cur := cluster.Singletons(g.N())
	superclustered := cluster.NewAssignment(g.N())
	assignment := cluster.NewAssignment(g.N())

	for i := 0; i <= p.L; i++ {
		ph := EN17Phase{Index: i, Deg: p.Deg[i], Delta: p.Delta[i], Clusters: cur.Len()}
		centers := cur.Centers()
		superclustered.Reset()
		var next *cluster.Collection

		if i < p.L && len(centers) > 0 {
			// Sample each center with probability 1/deg_i.
			prob := 1 / float64(p.Deg[i])
			var sampled []int
			for _, c := range centers {
				coin := rng.New(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15) ^ (uint64(c+1) * 0xbf58476d1ce4e5b9))
				if coin.Float64() < prob {
					sampled = append(sampled, c)
				}
			}
			ph.Sampled = len(sampled)

			// Sampled centers grow superclusters by BFS to depth δ_i;
			// every spanned center joins its nearest sampled center.
			dist, root, parent := g.MultiBFS(sampled, p.Delta[i])
			assignment.Reset()
			for _, c := range centers {
				if dist[c] != graph.Infinity {
					assignment.Set(c, root[c])
					superclustered.Set(c, 1)
				}
			}
			// Forest root paths are added to H.
			for u, v := range forestPaths(g, centers, dist, parent, superclustered).All() {
				if h.Add(int(u), int(v)) {
					ph.EdgesSC++
				}
			}

			var err error
			next, err = cur.Merge(g.N(), assignment)
			if err != nil {
				return nil, fmt.Errorf("baseline: EN17 phase %d merge: %w", i, err)
			}
			// Charge the BFS + climb rounds.
			res.ScheduledRounds += 2 * int(p.Delta[i])
		}

		// Interconnection: unsuperclustered centers connect to every
		// center within δ_i (no popularity cap — EN17 bounds the count
		// in expectation via the sampling).
		icEdges, icPairs := en17Interconnect(g, centers, superclustered, p.Delta[i], h)
		_ = icPairs
		ph.EdgesIC = icEdges
		ph.Unclustered = len(centers) - superclustered.Len()
		// Charge the exploration schedule: deg_i·δ_i rounds, the
		// Bellman-Ford budget of the randomized interconnection.
		res.ScheduledRounds += p.Deg[i] * int(p.Delta[i])
		res.Phases = append(res.Phases, ph)
		if next != nil {
			cur = next
		}
	}
	res.Spanner = h.Build()
	return res, nil
}

// en17Interconnect adds a shortest path from every unsuperclustered
// center to every center within delta directly into h, returning the
// number of new edges and the pair count.
func en17Interconnect(g *graph.Graph, centers []int, superclustered *cluster.Assignment, delta int32, h *graph.Builder) (added, pairs int) {
	isCenter := make([]bool, g.N())
	for _, c := range centers {
		isCenter[c] = true
	}
	for _, c := range centers {
		if superclustered.Has(c) {
			continue
		}
		dist, _, parent := g.MultiBFS([]int{c}, delta)
		for v := 0; v < g.N(); v++ {
			if v == c || !isCenter[v] || dist[v] == graph.Infinity {
				continue
			}
			pairs++
			// Walk the BFS parents back to c, adding the path.
			for x := v; x != c; {
				px := int(parent[x])
				if h.Add(x, px) {
					added++
				}
				x = px
			}
		}
	}
	return added, pairs
}

// forestPaths collects root paths for all spanned centers from a
// MultiBFS forest. The step-local set preserves the walk's early-exit
// semantics (stop once this step already marked the rest of the path);
// the caller merges it into H for the phase's new-edge count.
func forestPaths(g *graph.Graph, centers []int, dist []int32, parent []int32, spanned *cluster.Assignment) *graph.Builder {
	edges := graph.NewBuilder(g.N())
	for _, c := range centers {
		if !spanned.Has(c) || dist[c] == graph.Infinity {
			continue
		}
		for x := c; parent[x] >= 0; {
			px := int(parent[x])
			if !edges.Add(x, px) {
				break // the rest of the path is already marked
			}
			x = px
		}
	}
	return edges
}
