package delta

import (
	"slices"

	"nearspan/internal/graph"
	"nearspan/internal/rng"
)

// RandomBatch samples a churn delta that agrees with g: k existing edges
// to delete (uniform over endpoints, then over their incident edges) and
// k absent pairs to insert. Deterministic in (g, k, seed) — the shared
// workload generator of the churn experiment, the delta benchmarks, and
// the CLI demo, so their deltas and hence their rebuild costs line up.
// The batch is returned normalized. k is capped at g.M(), and the
// inserts further at the n(n−1)/2 − g.M() absent pairs, so a dense or
// complete g yields fewer inserts rather than an endless search.
func RandomBatch(g *graph.Graph, k int, seed uint64) *Batch {
	r := rng.New(seed)
	n := g.N()
	k = min(k, g.M())
	inserts := min(k, n*(n-1)/2-g.M())
	b := &Batch{}
	for len(b.Delete) < k {
		u := r.Intn(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		v := int(nb[r.Intn(len(nb))])
		e := Edge{U: int32(min(u, v)), V: int32(max(u, v))}
		if _, ok := slices.BinarySearchFunc(b.Delete, e, cmpEdge); !ok {
			b.Delete = append(b.Delete, e)
			slices.SortFunc(b.Delete, cmpEdge)
		}
	}
	for len(b.Insert) < inserts {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		e := Edge{U: int32(min(u, v)), V: int32(max(u, v))}
		if _, ok := slices.BinarySearchFunc(b.Insert, e, cmpEdge); !ok {
			b.Insert = append(b.Insert, e)
			slices.SortFunc(b.Insert, cmpEdge)
		}
	}
	// Already canonical, but Normalize also cross-checks the two lists.
	if err := b.Normalize(n); err != nil {
		panic("delta: RandomBatch produced an invalid batch: " + err.Error())
	}
	return b
}
