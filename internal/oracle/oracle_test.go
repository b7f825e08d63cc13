package oracle

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// spannerPool builds g's spanner under (eps, kappa, rho) and returns a
// pool over it with the spanner's parameters, the oracle as callers
// assemble it.
func spannerPool(g *graph.Graph, eps float64, kappa int, rho float64, opts PoolOptions) (*Pool, *params.Params, error) {
	p, err := params.New(eps, kappa, rho, g.N())
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Build(context.Background(), g, p, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return NewPool(res.Spanner, opts), p, nil
}

func newTestOracle(t *testing.T) (*Pool, *params.Params, *graph.Graph) {
	t.Helper()
	g := gen.GNP(200, 0.06, 11, true)
	o, p, err := spannerPool(g, 1.0/3, 3, 0.49, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return o, p, g
}

func TestOracleGuarantee(t *testing.T) {
	o, p, g := newTestOracle(t)
	alpha, beta := p.Guarantee()
	for u := 0; u < g.N(); u += 7 {
		exact := g.BFS(u)
		approx := o.Sources(u)
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if approx[v] < exact[v] {
				t.Fatalf("oracle underestimates %d-%d: %d < %d", u, v, approx[v], exact[v])
			}
			if float64(approx[v]) > alpha*float64(exact[v])+float64(beta) {
				t.Fatalf("oracle violates guarantee at %d-%d: %d vs (%.2f, %d) of %d",
					u, v, approx[v], alpha, beta, exact[v])
			}
		}
	}
}

func TestOracleDistMatchesSources(t *testing.T) {
	o, _, g := newTestOracle(t)
	lv := o.Sources(3)
	for v := 0; v < g.N(); v += 11 {
		if o.Dist(3, v) != lv[v] {
			t.Errorf("Dist(3,%d)=%d, Sources=%d", v, o.Dist(3, v), lv[v])
		}
	}
}

func TestOraclePairsBatch(t *testing.T) {
	o, _, g := newTestOracle(t)
	queries := [][2]int{{0, 5}, {0, 9}, {17, 3}, {0, 5}, {17, 100 % g.N()}}
	got := o.PairsBatch(queries)
	for i, q := range queries {
		if want := o.Dist(q[0], q[1]); got[i] != want {
			t.Errorf("query %v: %d, want %d", q, got[i], want)
		}
	}
}

func TestOracleCacheEviction(t *testing.T) {
	g := gen.Grid(8, 8)
	o, _, err := spannerPool(g, 0.5, 4, 0.45, PoolOptions{CacheSources: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Query more sources than the cache admits; answers stay correct
	// and the cache stays within CacheSources.
	for src := 0; src < 10; src++ {
		d := o.Dist(src, 63)
		if d < g.Distance(src, 63) {
			t.Fatalf("underestimate past the cache capacity: src %d", src)
		}
	}
	if got := o.Stats().CachedSources; got > 2 {
		t.Errorf("cache grew to %d entries, capacity 2", got)
	}
}

// Property: oracle answers are sandwiched between the exact distance and
// the guarantee for random graphs and parameters.
func TestPropOracleSandwich(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(60)
		g := gen.GNP(n, 4/float64(n), uint64(seed), true)
		o, p, err := spannerPool(g, 0.25+r.Float64()/2, 3, 0.49, PoolOptions{})
		if err != nil {
			return false
		}
		alpha, beta := p.Guarantee()
		for i := 0; i < 20; i++ {
			u, v := r.Intn(n), r.Intn(n)
			exact := g.Distance(u, v)
			got := o.Dist(u, v)
			if got < exact || float64(got) > alpha*float64(exact)+float64(beta) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
