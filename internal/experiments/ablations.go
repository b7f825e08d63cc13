package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

	"nearspan/internal/baseline"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/stats"
	"nearspan/internal/verify"
)

// AblationA1 compares the three superclustering mechanisms — exact scans
// (EP01), sampling (EN17), deterministic ruling sets (New) — on the same
// workload and parameters: the paper's central design trade (§2.1, "the
// additive term ... is slightly inferior to [EN17]" in exchange for
// determinism). The three constructions build and verify concurrently.
func AblationA1(ctx context.Context, w io.Writer, cfg Config) error {
	t := stats.NewTable(
		fmt.Sprintf("Ablation A1 — superclustering mechanism [%s]", cfg.Name),
		"mechanism", "R_1", "R_2", "beta", "edges", "worst add", "worst ratio", "deterministic")

	pSched, err := baseline.NewSchedule(cfg.Eps, cfg.Kappa, cfg.Rho, cfg.N())
	if err != nil {
		return err
	}
	var (
		pNew                 *params.Params
		resNew               *core.Result
		resEN                *baseline.EN17Result
		resEP                *baseline.EP01Result
		repNew, repEN, repEP verify.StretchReport
	)
	err = runConcurrently(ctx,
		func(ctx context.Context) error {
			var err error
			if pNew, err = params.New(cfg.Eps, cfg.Kappa, cfg.Rho, cfg.N()); err != nil {
				return err
			}
			if resNew, err = core.Build(ctx, cfg.Graph, pNew, core.Options{}); err != nil {
				return err
			}
			repNew = verify.Stretch(cfg.Graph, resNew.Spanner, 1, 0)
			return nil
		},
		func(ctx context.Context) error {
			var err error
			if resEN, err = baseline.BuildEN17(cfg.Graph, pSched, cfg.Seed); err != nil {
				return err
			}
			repEN = verify.Stretch(cfg.Graph, resEN.Spanner, 1, 0)
			return nil
		},
		func(ctx context.Context) error {
			var err error
			if resEP, err = baseline.BuildEP01(cfg.Graph, pSched); err != nil {
				return err
			}
			repEP = verify.Stretch(cfg.Graph, resEP.Spanner, 1, 0)
			return nil
		})
	if err != nil {
		return err
	}

	r2 := func(r []int32) string {
		if len(r) > 2 {
			return stats.Itoa(int(r[2]))
		}
		return "-"
	}
	t.Add("ruling set (New)", stats.Itoa(int(pNew.R[1])), r2(pNew.R),
		stats.Itoa(int(pNew.BetaInt())), stats.Itoa(resNew.EdgeCount()),
		stats.Itoa(int(repNew.WorstAdditive)), stats.F(repNew.WorstRatio, 3), "yes")
	t.Add("sampling (EN17)", stats.Itoa(int(pSched.R[1])), r2(pSched.R),
		stats.Itoa(int(pSched.Beta())), stats.Itoa(resEN.Spanner.M()),
		stats.Itoa(int(repEN.WorstAdditive)), stats.F(repEN.WorstRatio, 3), "no")
	t.Add("exact scans (EP01)", stats.Itoa(int(pSched.R[1])), r2(pSched.R),
		stats.Itoa(int(pSched.Beta())), stats.Itoa(resEP.Spanner.M()),
		stats.Itoa(int(repEP.WorstAdditive)), stats.F(repEP.WorstRatio, 3), "yes (centralized)")
	t.Note("the ruling-set radii carry the (2/rho_hat) domination factor — the price of determinism the paper pays")
	t.Render(w)
	fmt.Fprintln(w)
	return nil
}

// AblationA2 shows the two-stage degree schedule (exponential then
// fixed): with kappa*rho >= 2 the boundary i0 is interior, and |P_i|
// collapses at rate deg_i per phase.
func AblationA2(ctx context.Context, w io.Writer) error {
	g := gen.GNP(700, 0.05, 99, true)
	p, err := params.New(0.5, 8, 0.3, g.N())
	if err != nil {
		return err
	}
	res, err := core.Build(ctx, g, p, core.Options{})
	if err != nil {
		return err
	}
	t := stats.NewTable(
		fmt.Sprintf("Ablation A2 — stage boundary (kappa=8, rho=0.3, i0=%d, l=%d)", p.I0, p.L),
		"phase", "stage", "deg_i", "|P_i|", "|P_i|*deg_i")
	for _, ph := range res.Phases {
		stage := "exponential"
		if ph.Index > p.I0 {
			stage = "fixed"
		}
		if ph.Index == p.L {
			stage = "concluding"
		}
		t.Add(stats.Itoa(ph.Index), stage, stats.Itoa(ph.Deg), stats.Itoa(ph.Clusters),
			stats.Itoa(ph.Deg*ph.Clusters))
	}
	t.Note("|P_i|*deg_i stays within O(n^{1+1/kappa}) = %.0f — the invariant behind Lemma 2.12", p.PredictedSize()/p.Beta())
	t.Render(w)
	fmt.Fprintln(w)
	return nil
}

// AblationA4 quantifies the two Algorithm 1 subtleties this reproduction
// surfaced (see the NearNeighbors doc for the analysis):
//
//  1. Forwarding only newly-learned centers (a natural optimization of
//     the paper's "forward what you received" rule) breaks Lemma A.1's
//     counting guarantee.
//  2. The paper's forward budget of exactly deg_i messages per phase
//     lets a center's own announcement crowd out another center's on
//     the links back to it, violating Theorem 2.1(2) (an unpopular
//     center missing a center within delta); budget deg_i+1 repairs it.
//
// The ablation runs the three rules over a batch of random graphs plus
// the adversarial caterpillar and counts, for each rule: graphs with a
// Lemma A.1 deficit (some vertex knows fewer than min(deg, |Γ^δ∩S\{v}|)
// other centers) and graphs where an unpopular center misses or
// mis-measures a center within delta (Theorem 2.1(2) violations).
func AblationA4(ctx context.Context, w io.Writer) error {
	type rule struct {
		name      string
		reforward bool
		budget    int // extra slots over deg
		faithful  string
	}
	rules := []rule{
		{"forward only newly-learned", false, 0, "no (optimized)"},
		{"re-forward, budget deg (paper)", true, 0, "yes (literal)"},
		{"re-forward, budget deg+1 (this repo)", true, 1, "fixed"},
	}

	type workload struct {
		g       *graph.Graph
		centers []int
		deg     int
		delta   int32
	}
	var workloads []workload
	cat := gen.Caterpillar(12, 3)
	var catCenters []int
	for v := 0; v < cat.N(); v += 2 {
		catCenters = append(catCenters, v)
	}
	workloads = append(workloads, workload{cat, catCenters, 5, 4})
	for seed := uint64(1); seed <= 120; seed++ {
		g := gen.GNP(24+int(seed%20), 0.09, seed, true)
		var cs []int
		for v := 0; v < g.N(); v++ {
			if (uint64(v)+seed)%2 == 0 {
				cs = append(cs, v)
			}
		}
		workloads = append(workloads, workload{g, cs, 2 + int(seed%3), int32(2 + seed%2)})
	}

	t := stats.NewTable(
		fmt.Sprintf("Ablation A4 — Algorithm 1 forwarding rules over %d workloads", len(workloads)),
		"rule", "graphs w/ Lemma A.1 deficit", "graphs w/ Thm 2.1(2) violation", "faithfulness")
	for _, r := range rules {
		deficitGraphs, exactGraphs := 0, 0
		for _, wl := range workloads {
			if err := ctx.Err(); err != nil {
				return err
			}
			res := simulateNN(wl.g, wl.centers, wl.deg, wl.delta, r.reforward, wl.deg+r.budget)
			d, e := nnViolations(wl.g, wl.centers, wl.deg, wl.delta, res)
			if d > 0 {
				deficitGraphs++
			}
			if e > 0 {
				exactGraphs++
			}
		}
		t.Add(r.name, stats.Itoa(deficitGraphs), stats.Itoa(exactGraphs), r.faithful)
	}
	t.Note("a Lemma A.1 deficit vertex may misclassify itself as unpopular; a Thm 2.1(2) violation " +
		"makes the interconnection step skip a close pair, which Lemma 2.14's stretch argument relies on")
	t.Render(w)
	fmt.Fprintln(w)
	return nil
}

// nnKnown is the per-vertex knowledge of a simulated Algorithm 1 run.
type nnKnown struct {
	dist []map[int64]int32
}

// simulateNN runs the phase-level Algorithm 1 simulation under a
// configurable forwarding rule and budget.
func simulateNN(g *graph.Graph, centers []int, deg int, delta int32, reforward bool, budget int) nnKnown {
	n := g.N()
	known := make([]map[int64]int32, n)
	for v := range known {
		known[v] = make(map[int64]int32)
	}
	buffer := make([]map[int64]bool, n)
	for v := range buffer {
		buffer[v] = make(map[int64]bool)
	}
	for _, c := range centers {
		for _, u := range g.Neighbors(c) {
			if int(u) != c {
				buffer[u][int64(c)] = true
			}
		}
	}
	for p := int32(1); p <= delta; p++ {
		type fwd struct {
			v int
			c int64
		}
		var forwards []fwd
		for v := 0; v < n; v++ {
			if len(buffer[v]) == 0 {
				continue
			}
			ids := make([]int64, 0, len(buffer[v]))
			for c := range buffer[v] {
				ids = append(ids, c)
			}
			slices.Sort(ids)
			queued := 0
			for _, c := range ids {
				_, isKnown := known[v][c]
				if !isKnown && len(known[v]) < deg {
					known[v][c] = p
					if !reforward && p < delta {
						forwards = append(forwards, fwd{v, c})
					}
				}
				if reforward && queued < budget && p < delta {
					forwards = append(forwards, fwd{v, c})
					queued++
				}
			}
			buffer[v] = make(map[int64]bool)
		}
		for _, f := range forwards {
			for _, u := range g.Neighbors(f.v) {
				if int64(u) != f.c {
					buffer[u][f.c] = true
				}
			}
		}
		if len(forwards) == 0 {
			break
		}
	}
	return nnKnown{dist: known}
}

// nnViolations counts Lemma A.1 deficits and Theorem 2.1(2) violations
// of a simulated run against ground truth.
func nnViolations(g *graph.Graph, centers []int, deg int, delta int32, res nnKnown) (deficits, exactness int) {
	isC := make(map[int]bool, len(centers))
	for _, c := range centers {
		isC[c] = true
	}
	for v := 0; v < g.N(); v++ {
		dist := g.BFSBounded(v, delta)
		count := 0
		for u := 0; u < g.N(); u++ {
			if u != v && isC[u] && dist[u] <= delta {
				count++
			}
		}
		want := count
		if want > deg {
			want = deg
		}
		if len(res.dist[v]) < want {
			deficits++
		}
		// Theorem 2.1(2) applies to unpopular centers.
		if isC[v] && len(res.dist[v]) < deg {
			for u := 0; u < g.N(); u++ {
				if u == v || !isC[u] || dist[u] > delta {
					continue
				}
				if got, ok := res.dist[v][int64(u)]; !ok || got != dist[u] {
					exactness++
				}
			}
		}
	}
	return deficits, exactness
}
