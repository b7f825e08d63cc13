package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"nearspan/internal/cluster"
	"nearspan/internal/congest"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/verify"
)

// testConfigs pairs workloads with parameter sets. Configurations marked
// guarantee satisfy the §2.4 preconditions (ε <= ρ̂/10); the others are
// demo-scale parameters that exercise nontrivial phase structure on
// small graphs.
type testConfig struct {
	name  string
	g     *graph.Graph
	eps   float64
	kappa int
	rho   float64
}

func testConfigs(t *testing.T) []testConfig {
	t.Helper()
	return []testConfig{
		{"grid-demo", gen.Grid(9, 9), 1.0 / 3, 3, 0.49},
		{"gnp-demo", gen.GNP(90, 0.12, 7, true), 1.0 / 3, 3, 0.49},
		{"communities-demo", gen.Communities(4, 20, 0.4, 0.01, 3), 0.5, 4, 0.45},
		{"torus-demo", gen.Torus(8, 8), 0.5, 4, 0.3},
		{"dense-kappa8", gen.GNP(70, 0.3, 9, true), 0.5, 8, 0.3},
		{"path-guarantee", gen.Path(120), 1.0 / 30, 3, 0.49},
	}
}

func mustParams(t *testing.T, c testConfig) *params.Params {
	t.Helper()
	p, err := params.New(c.eps, c.kappa, c.rho, c.g.N())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func build(t *testing.T, c testConfig, opts Options) *Result {
	t.Helper()
	res, err := Build(context.Background(), c.g, mustParams(t, c), opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

func sameSpanner(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	same := true
	a.Edges(func(u, v int) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	return same
}

// The centralized reference and the full CONGEST protocol stack must
// construct the identical spanner and agree on all per-phase counts.
func TestDistributedMatchesCentralized(t *testing.T) {
	for _, c := range testConfigs(t) {
		if c.name == "path-guarantee" {
			continue // large schedule; covered by TestGuaranteeParams
		}
		cRes := build(t, c, Options{Mode: ModeCentralized})
		dRes := build(t, c, Options{Mode: ModeDistributed})
		if !sameSpanner(cRes.Spanner, dRes.Spanner) {
			t.Errorf("%s: spanners differ: central m=%d distributed m=%d",
				c.name, cRes.EdgeCount(), dRes.EdgeCount())
		}
		if len(cRes.Phases) != len(dRes.Phases) {
			t.Fatalf("%s: phase counts differ", c.name)
		}
		for i := range cRes.Phases {
			cp, dp := cRes.Phases[i], dRes.Phases[i]
			if cp.Clusters != dp.Clusters || cp.Popular != dp.Popular ||
				cp.RulingSet != dp.RulingSet || cp.Unclustered != dp.Unclustered ||
				cp.EdgesSC != dp.EdgesSC || cp.EdgesIC != dp.EdgesIC {
				t.Errorf("%s phase %d: stats differ:\n central %+v\n distrib %+v",
					c.name, i, cp, dp)
			}
			if cp.RoundsNN != dp.RoundsNN || cp.RoundsRS != dp.RoundsRS {
				t.Errorf("%s phase %d: schedule rounds differ: central (%d,%d) distributed (%d,%d)",
					c.name, i, cp.RoundsNN, cp.RoundsRS, dp.RoundsNN, dp.RoundsRS)
			}
		}
	}
}

// Dispatching every simulator round to the runtime must drive the full
// construction to the identical spanner, round count, and message count
// as running the rounds inline (which the demo graphs do by default).
func TestEnginesMatchOnFullConstruction(t *testing.T) {
	c := testConfigs(t)[1] // gnp-demo
	inline := build(t, c, Options{Mode: ModeDistributed})
	defer congest.SetInlineWorkCutoff(0)()
	got := build(t, c, Options{Mode: ModeDistributed})
	if !sameSpanner(inline.Spanner, got.Spanner) {
		t.Error("dispatched rounds produced a different spanner")
	}
	if inline.TotalRounds != got.TotalRounds || inline.Messages != got.Messages {
		t.Errorf("dispatched rounds disagree on metrics: (%d,%d) vs (%d,%d)",
			inline.TotalRounds, inline.Messages, got.TotalRounds, got.Messages)
	}
}

func TestDeterminism(t *testing.T) {
	c := testConfigs(t)[2]
	a := build(t, c, Options{Mode: ModeCentralized})
	b := build(t, c, Options{Mode: ModeCentralized})
	if !sameSpanner(a.Spanner, b.Spanner) {
		t.Error("two centralized runs differ")
	}
}

// The spanner is a subgraph of G and preserves connectivity.
func TestSpannerIsConnectedSubgraph(t *testing.T) {
	for _, c := range testConfigs(t) {
		res := build(t, c, Options{})
		if !verify.Subgraph(res.Spanner, c.g) {
			t.Errorf("%s: spanner is not a subgraph", c.name)
		}
		if c.g.Connected() && !res.Spanner.Connected() {
			t.Errorf("%s: spanner disconnected", c.name)
		}
	}
}

// Corollary 2.5: the U_i sets partition V.
func TestUSetsPartitionV(t *testing.T) {
	for _, c := range testConfigs(t) {
		res := build(t, c, Options{KeepClusters: true})
		if err := cluster.VerifyPartition(c.g.N(), res.U); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// Lemma 2.3: Rad(P_i) <= R_i, measured in the final spanner H (distances
// in the final H lower-bound distances in the phase-i prefix of H, so
// this checks the bound's consequence; radii are realized by tree paths
// added before phase i, making the final-H measurement the right one for
// the stretch analysis).
func TestClusterRadiiWithinBound(t *testing.T) {
	for _, c := range testConfigs(t) {
		res := build(t, c, Options{KeepClusters: true})
		p := res.Params
		for i, col := range res.P {
			if col.Len() == 0 {
				continue
			}
			rad := cluster.MaxRadius(res.Spanner, col)
			if rad < 0 {
				t.Errorf("%s phase %d: cluster disconnected in H", c.name, i)
				continue
			}
			if rad > p.R[i] {
				t.Errorf("%s phase %d: Rad(P_i)=%d exceeds R_i=%d", c.name, i, rad, p.R[i])
			}
		}
	}
}

// Lemma 2.4: every popular center is superclustered (never lands in U_i).
func TestPopularCentersAreSuperclustered(t *testing.T) {
	for _, c := range testConfigs(t) {
		if c.name == "path-guarantee" {
			continue
		}
		res := build(t, c, Options{KeepClusters: true})
		p := res.Params
		for i := 0; i < p.L && i < len(res.P); i++ {
			col := res.P[i]
			if col.Len() == 0 {
				continue
			}
			nn := protocols.CentralNearNeighbors(c.g, col.Centers(), p.Deg[i], p.Delta[i])
			u := res.U[i]
			for _, rc := range u.Centers() {
				if nn.Popular[rc] {
					t.Errorf("%s phase %d: popular center %d in U_i", c.name, i, rc)
				}
			}
		}
	}
}

// Lemma 2.14: for every C in U_i and C' in P_i with d_G(r_C, r_C') <=
// delta_i, H contains a shortest path between the centers.
func TestInterconnectionCompleteness(t *testing.T) {
	for _, c := range testConfigs(t) {
		if c.name == "path-guarantee" {
			continue
		}
		res := build(t, c, Options{KeepClusters: true})
		p := res.Params
		for i := 0; i <= p.L && i < len(res.P); i++ {
			col := res.P[i]
			if col.Len() == 0 {
				continue
			}
			centers := col.Centers()
			isCenter := make(map[int]bool)
			for _, x := range centers {
				isCenter[x] = true
			}
			u := res.U[i]
			for _, rc := range u.Centers() {
				dist := c.g.BFSBounded(rc, p.Delta[i])
				distH := res.Spanner.BFS(rc)
				for _, other := range centers {
					if other == rc || dist[other] > p.Delta[i] {
						continue
					}
					if distH[other] != dist[other] {
						t.Errorf("%s phase %d: centers %d-%d at d_G=%d but d_H=%d",
							c.name, i, rc, other, dist[other], distH[other])
					}
				}
			}
		}
	}
}

// Corollary 2.18: the spanner satisfies (1+eps', beta) stretch. The bound
// is proven for guarantee-mode parameters; we assert it there and also
// record that it holds (with the loose constants) on the demo configs.
func TestStretchBound(t *testing.T) {
	for _, c := range testConfigs(t) {
		res := build(t, c, Options{})
		p := res.Params
		alpha, beta := p.Guarantee()
		rep := verify.Stretch(c.g, res.Spanner, alpha, beta)
		if !rep.OK() {
			t.Errorf("%s: stretch (1+%.3f, %d) violated: %v", c.name, p.EpsPrime(), beta, rep)
		}
		// The spanner is distance-dominated by G (it is a subgraph).
		if rep.WorstRatio < 1 {
			t.Errorf("%s: impossible ratio %v", c.name, rep.WorstRatio)
		}
	}
}

// Edge stretch: for every edge of G, the spanner bound specializes to
// d_H(u,v) <= 1 + eps' + beta. This is the per-edge guarantee that makes
// H usable as a synchronizer skeleton, and a much tighter check than the
// all-pairs bound when the spanner drops edges aggressively.
func TestEdgeStretch(t *testing.T) {
	for _, c := range testConfigs(t) {
		res := build(t, c, Options{})
		p := res.Params
		limit := int32(1) + int32(p.EpsPrime()+1) + p.BetaInt()
		worst := int32(0)
		var worstEdge [2]int
		c.g.Edges(func(u, v int) {
			// One BFS per endpoint would be O(nm); restrict to dropped
			// edges, whose detours are the only nontrivial distances.
			if res.Spanner.HasEdge(u, v) {
				return
			}
			d := res.Spanner.Distance(u, v)
			if d > worst {
				worst = d
				worstEdge = [2]int{u, v}
			}
		})
		if worst > limit {
			t.Errorf("%s: edge %v stretched to %d > 1+eps'+beta = %d",
				c.name, worstEdge, worst, limit)
		}
	}
}

// Lemmas 2.10 and 2.11: cluster collections shrink at least at the
// prescribed rate (checked as |P_{i+1}| <= |W_i| <= |P_i| and the
// endgame |P_L| <= deg_L, which is what the concluding phase relies on).
func TestClusterDecay(t *testing.T) {
	for _, c := range testConfigs(t) {
		res := build(t, c, Options{KeepClusters: true})
		for i := 0; i+1 < len(res.Phases); i++ {
			ps := res.Phases[i]
			if ps.RulingSet > ps.Popular {
				t.Errorf("%s phase %d: |RS|=%d > |W|=%d", c.name, i, ps.RulingSet, ps.Popular)
			}
			if ps.Popular > ps.Clusters {
				t.Errorf("%s phase %d: |W|=%d > |P|=%d", c.name, i, ps.Popular, ps.Clusters)
			}
			if got := res.P[i+1].Len(); got != ps.RulingSet {
				t.Errorf("%s phase %d: |P_{i+1}|=%d != |RS_i|=%d", c.name, i, got, ps.RulingSet)
			}
		}
		last := res.Phases[len(res.Phases)-1]
		if last.Clusters > last.Deg {
			t.Errorf("%s: |P_L|=%d exceeds deg_L=%d — concluding phase premise violated",
				c.name, last.Clusters, last.Deg)
		}
	}
}

// The construction carries only the center lists S_{i+1} = RS_i (§2.2:
// every supercluster is rooted at a ruling-set vertex). The collections
// kept for verification are derived independently, by relabelling P_i
// through the forest roots, so their centers must equal the carried
// lists; and keeping them must not change anything the build outputs.
func TestCarriedCentersMatchClusters(t *testing.T) {
	for _, c := range testConfigs(t) {
		for _, mode := range []Mode{ModeCentralized, ModeDistributed} {
			if mode == ModeDistributed && c.name == "path-guarantee" {
				continue // large schedule; covered by TestGuaranteeParams
			}
			kept := build(t, c, Options{Mode: mode, KeepClusters: true, KeepRebuildState: true})
			plain := build(t, c, Options{Mode: mode, KeepRebuildState: true})
			for i, ph := range kept.Rebuild.Phases {
				if got := kept.P[i].Centers(); !slices.Equal(got, ph.Centers) {
					t.Errorf("%s %v phase %d: P_i centers %v, carried %v", c.name, mode, i, got, ph.Centers)
				}
			}
			_, hk := graph.Fingerprint(kept.Spanner)
			_, hp := graph.Fingerprint(plain.Spanner)
			if hk != hp || !reflect.DeepEqual(kept.Phases, plain.Phases) || !reflect.DeepEqual(kept.Steps, plain.Steps) {
				t.Errorf("%s %v: KeepClusters changed the build", c.name, mode)
			}
		}
	}
}

// Lemma 2.8 / Corollary 2.9 consequence: phase rounds are dominated by
// the ruling set + Algorithm 1 budgets, and the total stays within the
// predicted O(beta * n^rho / rho) up to a moderate constant.
func TestRoundBudget(t *testing.T) {
	c := testConfigs(t)[0]
	res := build(t, c, Options{Mode: ModeDistributed})
	p := res.Params
	if res.TotalRounds <= 0 {
		t.Fatal("no rounds measured")
	}
	// The constant below is generous; the experiment harness reports the
	// precise measured/predicted ratios.
	limit := 1000 * p.PredictedRounds()
	if float64(res.TotalRounds) > limit {
		t.Errorf("rounds %d beyond sanity bound %v", res.TotalRounds, limit)
	}
}

func TestBuildValidation(t *testing.T) {
	g := gen.Path(10)
	p, err := params.New(0.5, 4, 0.45, 99) // wrong n
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), g, p, Options{}); err == nil {
		t.Error("mismatched n accepted")
	}
	p2, err := params.New(0.5, 4, 0.45, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), g, p2, Options{Mode: Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// Guarantee-mode parameters on a long path: the schedule is large but the
// graph is trivial, validating the integer schedule end to end under the
// paper's preconditions.
func TestGuaranteeParams(t *testing.T) {
	c := testConfigs(t)[5]
	p := mustParams(t, c)
	if !p.GuaranteeOK() {
		t.Fatalf("expected guarantee-mode params, got %v", p)
	}
	res := build(t, c, Options{})
	alpha, beta := p.Guarantee()
	rep := verify.Stretch(c.g, res.Spanner, alpha, beta)
	if !rep.OK() {
		t.Errorf("guarantee violated: %v", rep)
	}
	// A path spanner must be the path itself (no edge can be dropped
	// without infinite stretch... beta-bounded stretch tolerates drops
	// only if beta covers the detour, which on a path has no detour).
	if res.EdgeCount() != c.g.M() {
		t.Errorf("path spanner dropped edges: %d/%d", res.EdgeCount(), c.g.M())
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g := gen.Path(n)
		p, err := params.New(0.5, 4, 0.45, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Build(context.Background(), g, p, Options{Mode: ModeDistributed})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 1 && !res.Spanner.Connected() {
			t.Errorf("n=%d spanner disconnected", n)
		}
	}
}

// Paper §1.3.1: the construction works when vertices know only an
// estimate ñ of n (n <= ñ <= poly(n)). Over-estimation costs rounds but
// preserves every guarantee, and the two modes still agree.
func TestEstimatedN(t *testing.T) {
	g := gen.GNP(90, 0.12, 7, true)
	exactP, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	overP, err := params.NewWithEstimate(1.0/3, 3, 0.49, g.N(), g.N()*g.N())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build(context.Background(), g, exactP, Options{Mode: ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Build(context.Background(), g, overP, Options{Mode: ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	// Stretch guarantee holds under the estimate's schedule.
	alpha, beta := overP.Guarantee()
	rep := verify.Stretch(g, over.Spanner, alpha, beta)
	if !rep.OK() {
		t.Errorf("stretch violated with over-estimate: %v", rep)
	}
	if !verify.Subgraph(over.Spanner, g) {
		t.Error("over-estimate spanner not a subgraph")
	}
	// Rounds grow (bigger deg thresholds, bigger ruling-set base).
	if over.TotalRounds <= exact.TotalRounds {
		t.Errorf("over-estimate did not cost rounds: %d vs %d",
			over.TotalRounds, exact.TotalRounds)
	}
	// Modes agree under the estimate too.
	overC, err := Build(context.Background(), g, overP, Options{Mode: ModeCentralized})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSpanner(over.Spanner, overC.Spanner) {
		t.Error("modes disagree under the estimate")
	}
}

func TestModeString(t *testing.T) {
	if ModeCentralized.String() != "centralized" || ModeDistributed.String() != "distributed" {
		t.Error("Mode.String broken")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string broken")
	}
}
