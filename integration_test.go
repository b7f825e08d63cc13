package nearspan_test

import (
	"strings"
	"testing"

	"nearspan"
)

// TestEndToEndPipeline exercises the full public surface as a downstream
// user would: serialize a workload, reload it, build the spanner
// distributedly, put a query pool over it, and verify every layer's
// guarantees against the original graph.
func TestEndToEndPipeline(t *testing.T) {
	original := nearspan.Communities(5, 30, 0.3, 0.01, 99)

	// Round-trip through the edge-list format.
	var sb strings.Builder
	if err := original.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	g, err := nearspan.ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != original.N() || g.M() != original.M() {
		t.Fatalf("round trip changed the graph: %d/%d vs %d/%d",
			g.N(), g.M(), original.N(), original.M())
	}

	// Distributed construction on the CONGEST simulator.
	res, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
		Mode: nearspan.DistributedMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRounds <= 0 {
		t.Error("no rounds measured")
	}
	if !nearspan.IsSubgraph(res.Spanner, g) {
		t.Error("spanner not a subgraph")
	}

	// Stretch guarantee against the ORIGINAL graph (not the reloaded
	// copy) — the formats and construction must compose transparently.
	alpha, beta := res.Params.Guarantee()
	rep := nearspan.VerifyStretch(original, res.Spanner, alpha, beta)
	if !rep.OK() {
		t.Errorf("stretch violated: %v", rep)
	}

	// Oracle over the distributed result.
	o := nearspan.NewOraclePool(res.Spanner, nearspan.OraclePoolOptions{CacheSources: 8})
	for u := 0; u < g.N(); u += 17 {
		for v := 0; v < g.N(); v += 23 {
			exact := original.Distance(u, v)
			got := o.Dist(u, v)
			if got < exact {
				t.Fatalf("oracle underestimates %d-%d", u, v)
			}
			if float64(got) > alpha*float64(exact)+float64(beta) {
				t.Fatalf("oracle answer %d beyond guarantee for exact %d", got, exact)
			}
		}
	}

	// The whole pipeline is deterministic end to end.
	res2, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
		Mode: nearspan.DistributedMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.EdgeCount() != res.EdgeCount() || !nearspan.IsSubgraph(res2.Spanner, res.Spanner) {
		t.Error("a second distributed build differs from the first")
	}
}

// TestCrossAlgorithmComparison pins the qualitative relationships the
// paper's tables assert, as an executable integration check.
func TestCrossAlgorithmComparison(t *testing.T) {
	g := nearspan.GNP(250, 0.08, 31, true)
	eps, kappa, rho := 1.0/3, 3, 0.49

	det, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: eps, Kappa: kappa, Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	en, err := nearspan.BuildEN17(g, eps, kappa, rho, 5)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := nearspan.BuildEP01(g, eps, kappa, rho)
	if err != nil {
		t.Fatal(err)
	}

	// The schedules' additive terms are ordered: EP01 = EN17 radii are
	// tighter than the ruling-set radii (the derandomization price).
	if det.Params.BetaInt() < en.Beta {
		t.Errorf("deterministic beta %d below EN17's %d — ordering inverted",
			det.Params.BetaInt(), en.Beta)
	}
	if en.Beta != ep.Beta {
		t.Errorf("EN17 and EP01 share the radius recurrence: %d vs %d", en.Beta, ep.Beta)
	}

	// All three sparsify this dense graph.
	for name, m := range map[string]int{
		"det": det.EdgeCount(), "en17": en.Spanner.M(), "ep01": ep.Spanner.M(),
	} {
		if m >= g.M() {
			t.Errorf("%s did not sparsify: %d >= %d", name, m, g.M())
		}
	}
}
