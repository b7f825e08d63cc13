package baseline

import (
	"math"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/verify"
)

func workloads(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"gnp":         gen.GNP(90, 0.12, 7, true),
		"grid":        gen.Grid(9, 9),
		"communities": gen.Communities(4, 20, 0.4, 0.01, 3),
		"torus":       gen.Torus(8, 8),
	}
}

// --- EN17 ---

func TestEN17StretchAndSubgraph(t *testing.T) {
	for name, g := range workloads(t) {
		p, err := NewSchedule(1.0/3, 3, 0.49, g.N())
		if err != nil {
			t.Fatal(err)
		}
		res, err := BuildEN17(g, p, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !verify.Subgraph(res.Spanner, g) {
			t.Errorf("%s: EN17 spanner not a subgraph", name)
		}
		rep := verify.Stretch(g, res.Spanner, 1+res.EpsPrime, res.Beta)
		if !rep.OK() {
			t.Errorf("%s: EN17 stretch violated: %v", name, rep)
		}
		if res.ScheduledRounds <= 0 {
			t.Errorf("%s: EN17 scheduled rounds %d", name, res.ScheduledRounds)
		}
	}
}

func TestEN17Deterministic(t *testing.T) {
	g := gen.GNP(80, 0.15, 9, true)
	p, err := NewSchedule(0.5, 4, 0.45, g.N())
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildEN17(g, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEN17(g, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Spanner.M() != b.Spanner.M() {
		t.Error("same seed produced different spanners")
	}
	c, err := BuildEN17(g, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not differ; only determinism is asserted
}

func TestEN17RadiiTighterThanDeterministic(t *testing.T) {
	// The whole point of the paper's comparison: EN17's radius growth
	// (no ruling-set detour) is strictly tighter, so its radii are
	// smaller for equal (eps, kappa, rho). EP01 runs on the same Schedule.
	pEN, err := NewSchedule(0.25, 4, 0.45, 1000)
	if err != nil {
		t.Fatal(err)
	}
	pDet, err := params.New(0.25, 4, 0.45, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pEN.L != pDet.L {
		t.Fatalf("phase counts differ: %d vs %d", pEN.L, pDet.L)
	}
	for i := 1; i <= pEN.L; i++ {
		if pEN.R[i] >= pDet.R[i] {
			t.Errorf("R[%d]: EN17 %d not below the deterministic %d", i, pEN.R[i], pDet.R[i])
		}
	}
}

// --- Baswana–Sen ---

func TestBaswanaSenStretch(t *testing.T) {
	for name, g := range workloads(t) {
		for _, kappa := range []int{2, 3} {
			h, err := BuildBaswanaSen(g, kappa, 21)
			if err != nil {
				t.Fatal(err)
			}
			if !verify.Subgraph(h, g) {
				t.Errorf("%s k=%d: not a subgraph", name, kappa)
			}
			rep := verify.Stretch(g, h, float64(2*kappa-1), 0)
			if !rep.OK() {
				t.Errorf("%s k=%d: multiplicative stretch violated: %v", name, kappa, rep)
			}
		}
	}
}

func TestBaswanaSenSparsifiesDenseGraphs(t *testing.T) {
	g := gen.GNP(120, 0.4, 5, true)
	h, err := BuildBaswanaSen(g, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() >= g.M() {
		t.Errorf("no sparsification: %d >= %d", h.M(), g.M())
	}
	// Expected size ~ kappa * n^{1+1/3}; allow a generous factor.
	bound := 3.0 * 4 * math.Pow(120, 1+1.0/3)
	if float64(h.M()) > bound {
		t.Errorf("size %d beyond expected bound %v", h.M(), bound)
	}
}

// --- Greedy ---

func TestGreedyStretchAndOptimality(t *testing.T) {
	for name, g := range workloads(t) {
		for _, kappa := range []int{2, 3} {
			h, err := BuildGreedy(g, kappa)
			if err != nil {
				t.Fatal(err)
			}
			if !verify.Subgraph(h, g) {
				t.Errorf("%s k=%d: not a subgraph", name, kappa)
			}
			rep := verify.Stretch(g, h, float64(2*kappa-1), 0)
			if !rep.OK() {
				t.Errorf("%s k=%d: greedy stretch violated: %v", name, kappa, rep)
			}
		}
	}
}

func TestGreedyNoRedundantEdges(t *testing.T) {
	// Greedy keeps an edge only if needed: removing any kept edge must
	// violate the stretch for its endpoints.
	g := gen.GNP(40, 0.3, 13, true)
	kappa := 2
	limit := int32(2*kappa - 1)
	h, err := BuildGreedy(g, kappa)
	if err != nil {
		t.Fatal(err)
	}
	// Girth property: greedy spanners have no cycle of length <= 2k, so
	// for every kept edge the alternative path exceeds 2k-1.
	h.Edges(func(u, v int) {
		d := distWithout(h, u, v)
		if d <= limit {
			t.Errorf("edge %d-%d redundant: alt path %d", u, v, d)
		}
	})
}

// distWithout returns d_{h-e}(u, v) for e = {u, v}.
func distWithout(h *graph.Graph, u, v int) int32 {
	b := graph.NewBuilder(h.N())
	h.Edges(func(x, y int) {
		if (x == u && y == v) || (x == v && y == u) {
			return
		}
		if err := b.AddEdge(x, y); err != nil {
			panic(err)
		}
	})
	return b.Build().Distance(u, v)
}

func TestGreedySmallerThanBaswanaSen(t *testing.T) {
	// Greedy is size-optimal; Baswana-Sen pays a kappa factor. On a
	// dense graph greedy should not be (much) larger.
	g := gen.GNP(100, 0.3, 17, true)
	gr, err := BuildGreedy(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := BuildBaswanaSen(g, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gr.M() > 2*bs.M() {
		t.Errorf("greedy %d much larger than Baswana-Sen %d", gr.M(), bs.M())
	}
}

// --- EP01 ---

func TestEP01StretchAndDecay(t *testing.T) {
	for name, g := range workloads(t) {
		p, err := NewSchedule(1.0/3, 3, 0.49, g.N())
		if err != nil {
			t.Fatal(err)
		}
		res, err := BuildEP01(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if !verify.Subgraph(res.Spanner, g) {
			t.Errorf("%s: EP01 spanner not a subgraph", name)
		}
		rep := verify.Stretch(g, res.Spanner, 1+res.EpsPrime, res.Beta)
		if !rep.OK() {
			t.Errorf("%s: EP01 stretch violated: %v", name, rep)
		}
		// Decay: every supercluster absorbed > deg clusters.
		for i := 0; i+1 < len(res.Phases); i++ {
			ph := res.Phases[i]
			nextClusters := res.Phases[i+1].Clusters
			if nextClusters != ph.Superclst {
				t.Errorf("%s phase %d: |P_{i+1}|=%d != superclusters %d",
					name, i, nextClusters, ph.Superclst)
			}
			// Each supercluster absorbs >= deg+1 clusters, so their
			// count is bounded by |P_i|/(deg+1).
			if ph.Superclst > ph.Clusters/(ph.Deg+1) {
				t.Errorf("%s phase %d: %d superclusters from %d clusters at deg %d",
					name, i, ph.Superclst, ph.Clusters, ph.Deg)
			}
		}
	}
}

func TestEP01Deterministic(t *testing.T) {
	g := gen.Communities(3, 25, 0.35, 0.02, 9)
	p, err := NewSchedule(0.5, 4, 0.45, g.N())
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildEP01(g, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEP01(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Spanner.M() != b.Spanner.M() {
		t.Error("EP01 not deterministic")
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := NewSchedule(0, 4, 0.45, 10); err == nil {
		t.Error("schedule eps=0 accepted")
	}
	if _, err := NewSchedule(0.5, 1, 0.45, 10); err == nil {
		t.Error("schedule kappa=1 accepted")
	}
	if _, err := BuildBaswanaSen(gen.Path(5), 0, 1); err == nil {
		t.Error("BS kappa=0 accepted")
	}
	if _, err := BuildGreedy(gen.Path(5), 0); err == nil {
		t.Error("greedy kappa=0 accepted")
	}
	g := gen.Path(5)
	p, err := NewSchedule(0.5, 4, 0.45, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildEN17(g, p, 1); err == nil {
		t.Error("EN17 n mismatch accepted")
	}
	if _, err := BuildEP01(g, p); err == nil {
		t.Error("EP01 n mismatch accepted")
	}
}
