package nearspan_test

import (
	"testing"

	"nearspan"
)

func TestQuickstartFlow(t *testing.T) {
	g := nearspan.Grid(12, 12)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: 0.5, Kappa: 4, Rho: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if !nearspan.IsSubgraph(res.Spanner, g) {
		t.Error("spanner not a subgraph")
	}
	alpha, beta := res.Params.Guarantee()
	rep := nearspan.VerifyStretch(g, res.Spanner, alpha, beta)
	if !rep.OK() {
		t.Errorf("stretch violated: %v", rep)
	}
}

func TestBuildSpannerByTarget(t *testing.T) {
	g := nearspan.GNP(80, 0.1, 5, true)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{TargetEpsPrime: 0.5, Kappa: 4, Rho: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Params.EpsPrime(); got > 0.5+1e-9 {
		t.Errorf("EpsPrime %v exceeds target", got)
	}
	rep := nearspan.VerifyStretch(g, res.Spanner, 1.5, res.Params.BetaInt())
	if !rep.OK() {
		t.Errorf("target-mode stretch violated: %v", rep)
	}
}

func TestBuildSpannerNeedsEps(t *testing.T) {
	g := nearspan.Path(5)
	if _, err := nearspan.BuildSpanner(g, nearspan.Config{Kappa: 4, Rho: 0.45}); err == nil {
		t.Error("missing eps accepted")
	}
}

func TestDistributedMode(t *testing.T) {
	g := nearspan.Torus(6, 6)
	cfg := nearspan.Config{Eps: 0.5, Kappa: 4, Rho: 0.45, Mode: nearspan.DistributedMode}
	res, err := nearspan.BuildSpanner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRounds <= 0 || res.Messages <= 0 {
		t.Errorf("distributed run reported rounds=%d messages=%d", res.TotalRounds, res.Messages)
	}
	cen, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: 0.5, Kappa: 4, Rho: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if cen.EdgeCount() != res.EdgeCount() {
		t.Errorf("modes disagree: %d vs %d edges", cen.EdgeCount(), res.EdgeCount())
	}
}

func TestBaselinesViaPublicAPI(t *testing.T) {
	g := nearspan.Communities(3, 20, 0.4, 0.02, 11)
	en, err := nearspan.BuildEN17(g, 0.5, 4, 0.45, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !nearspan.IsSubgraph(en.Spanner, g) {
		t.Error("EN17 not a subgraph")
	}
	ep, err := nearspan.BuildEP01(g, 0.5, 4, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if !nearspan.IsSubgraph(ep.Spanner, g) {
		t.Error("EP01 not a subgraph")
	}
	bs, err := nearspan.BuildBaswanaSen(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep := nearspan.VerifyStretch(g, bs, 5, 0); !rep.OK() {
		t.Errorf("BS stretch: %v", rep)
	}
	gr, err := nearspan.BuildGreedy(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep := nearspan.VerifyStretch(g, gr, 5, 0); !rep.OK() {
		t.Errorf("greedy stretch: %v", rep)
	}
}

func TestParamsInspection(t *testing.T) {
	p, err := nearspan.NewParams(0.05, 4, 0.45, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.L < 1 || len(p.Deg) != p.L+1 || len(p.Delta) != p.L+1 {
		t.Errorf("schedule malformed: %v", p)
	}
}

func TestSampledVerification(t *testing.T) {
	g := nearspan.GNP(150, 0.05, 9, true)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: 0.5, Kappa: 4, Rho: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	alpha, beta := res.Params.Guarantee()
	rep := nearspan.VerifyStretchSampled(g, res.Spanner, alpha, beta, 20, 7)
	if !rep.OK() {
		t.Errorf("sampled stretch violated: %v", rep)
	}
}
