package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"nearspan/internal/cluster"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/verify"
)

func randomWorkload(r *rand.Rand) (*graph.Graph, *params.Params) {
	n := 20 + r.Intn(60)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(v, r.Intn(v)); err != nil {
			panic(err)
		}
	}
	extra := r.Intn(4 * n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	g := b.Build()

	// Random valid parameter triple. Resample until the schedule is
	// test-sized: demo parameters with small eps and many phases blow
	// delta_l up exponentially, which is correct but not useful to
	// exercise repeatedly.
	for {
		kappas := []int{3, 4, 6, 8}
		kappa := kappas[r.Intn(len(kappas))]
		rho := 1/float64(kappa) + r.Float64()*(0.499-1/float64(kappa))
		eps := 0.2 + r.Float64()*0.6
		p, err := params.New(eps, kappa, rho, n)
		if err != nil {
			panic(err)
		}
		if p.Delta[p.L] <= 3000 {
			return g, p
		}
	}
}

// The full construction maintains its contract for arbitrary graphs and
// valid parameters: subgraph, connected, stretch-bounded, U-partition.
func TestPropConstructionContract(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, p := randomWorkload(r)
		res, err := Build(context.Background(), g, p, Options{KeepClusters: true})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !verify.Subgraph(res.Spanner, g) {
			t.Logf("seed %d: not a subgraph", seed)
			return false
		}
		if !res.Spanner.Connected() {
			t.Logf("seed %d: disconnected", seed)
			return false
		}
		if err := cluster.VerifyPartition(g.N(), res.U); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		alpha, beta := p.Guarantee()
		rep := verify.Stretch(g, res.Spanner, alpha, beta)
		if !rep.OK() {
			t.Logf("seed %d: stretch violated: %v (params %v)", seed, rep, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Distributed and centralized modes agree on arbitrary inputs — the
// protocol stack is a faithful implementation of the reference.
func TestPropModeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, p := randomWorkload(r)
		if p.Delta[p.L] > 300 {
			// Keep the distributed schedule affordable inside quick.
			return true
		}
		a, err := Build(context.Background(), g, p, Options{Mode: ModeCentralized})
		if err != nil {
			return false
		}
		b, err := Build(context.Background(), g, p, Options{Mode: ModeDistributed})
		if err != nil {
			return false
		}
		if a.EdgeCount() != b.EdgeCount() {
			t.Logf("seed %d: %d vs %d edges", seed, a.EdgeCount(), b.EdgeCount())
			return false
		}
		same := true
		a.Spanner.Edges(func(u, v int) {
			if !b.Spanner.HasEdge(u, v) {
				same = false
			}
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Cluster radii never exceed the schedule's R_i for arbitrary inputs
// (Lemma 2.3).
func TestPropRadiusBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, p := randomWorkload(r)
		res, err := Build(context.Background(), g, p, Options{KeepClusters: true})
		if err != nil {
			return false
		}
		for i, col := range res.P {
			if col.Len() == 0 {
				continue
			}
			rad := cluster.MaxRadius(res.Spanner, col)
			if rad < 0 || rad > p.R[i] {
				t.Logf("seed %d phase %d: rad %d > R %d", seed, i, rad, p.R[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
