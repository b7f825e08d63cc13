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

func newTestOracle(t *testing.T) (*Oracle, *graph.Graph) {
	t.Helper()
	g := gen.GNP(200, 0.06, 11, true)
	o, err := New(g, Options{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49})
	if err != nil {
		t.Fatal(err)
	}
	return o, g
}

func TestOracleGuarantee(t *testing.T) {
	o, g := newTestOracle(t)
	alpha, beta := o.Guarantee()
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
	o, g := newTestOracle(t)
	lv := o.Sources(3)
	for v := 0; v < g.N(); v += 11 {
		if o.Dist(3, v) != lv[v] {
			t.Errorf("Dist(3,%d)=%d, Sources=%d", v, o.Dist(3, v), lv[v])
		}
	}
}

func TestOraclePairsBatch(t *testing.T) {
	o, g := newTestOracle(t)
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
	o, err := New(g, Options{Eps: 0.5, Kappa: 4, Rho: 0.45, CacheSources: 2})
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

func TestOracleFromSpanner(t *testing.T) {
	g := gen.Torus(8, 8)
	p, err := params.New(0.5, 4, 0.45, g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := FromSpanner(g, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Dist(0, 36) < g.Distance(0, 36) {
		t.Error("FromSpanner oracle underestimates")
	}
	// Mismatched graph rejected.
	if _, err := FromSpanner(gen.Path(5), res, 4); err == nil {
		t.Error("graph/spanner size mismatch accepted")
	}
}

func TestOracleEdgeSavings(t *testing.T) {
	o, g := newTestOracle(t)
	if o.EdgeSavings() != g.M()-o.Spanner().M() {
		t.Error("EdgeSavings inconsistent")
	}
	if o.EdgeSavings() <= 0 {
		t.Error("expected savings on a dense graph")
	}
}

// Property: oracle answers are sandwiched between the exact distance and
// the guarantee for random graphs and parameters.
func TestPropOracleSandwich(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(60)
		g := gen.GNP(n, 4/float64(n), uint64(seed), true)
		o, err := New(g, Options{Eps: 0.25 + r.Float64()/2, Kappa: 3, Rho: 0.49})
		if err != nil {
			return false
		}
		alpha, beta := o.Guarantee()
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
