package experiments

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"

	"nearspan/internal/cluster"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/stats"
	"nearspan/internal/trace"
)

// FigureConfig is the small grid workload the figure reproductions
// render on. Parameters are chosen so phase 0 already superclusters
// (deg_0 = 2 on a degree-4 grid). Tails of TailLen degree-2 vertices
// hang off evenly spaced grid vertices: tail vertices are unpopular, and
// those beyond the phase-0 forest depth stay unsuperclustered, so the
// interconnection figures (5 and 6) have content.
type FigureConfig struct {
	Rows, Cols     int
	Tails, TailLen int
	Eps            float64
	Kappa          int
	Rho            float64
}

// DefaultFigureConfig returns the standard figure workload: deg_0 = 3,
// so the degree-4 grid interior is popular (superclusters form, Figures
// 1-4) while the degree-2 tails are not (U_0 is nonempty, Figures 5-6).
func DefaultFigureConfig() FigureConfig {
	return FigureConfig{Rows: 12, Cols: 12, Tails: 6, TailLen: 12, Eps: 1.0 / 3, Kappa: 5, Rho: 0.3}
}

// figureGraph builds the grid plus Tails paths of TailLen vertices
// hanging off evenly spaced grid vertices. Tail IDs start at Rows*Cols,
// so the grid renderings stay valid.
func figureGraph(fc FigureConfig) *graph.Graph {
	base := fc.Rows * fc.Cols
	b := graph.NewBuilder(base + fc.Tails*fc.TailLen)
	gg := gen.Grid(fc.Rows, fc.Cols)
	gg.Edges(func(u, v int) {
		if err := b.AddEdge(u, v); err != nil {
			panic(err)
		}
	})
	next := base
	for i := 0; i < fc.Tails; i++ {
		anchor := (i * base / fc.Tails) % base
		prev := anchor
		for j := 0; j < fc.TailLen; j++ {
			if err := b.AddEdge(prev, next); err != nil {
				panic(err)
			}
			prev = next
			next++
		}
	}
	return b.Build()
}

// Figures runs the structural experiments for the paper's Figures 1–8:
// each figure's claim is verified as an invariant, and Figures 1–5 are
// rendered on the grid.
func Figures(ctx context.Context, w io.Writer, fc FigureConfig) error {
	g := figureGraph(fc)
	p, err := params.New(fc.Eps, fc.Kappa, fc.Rho, g.N())
	if err != nil {
		return err
	}
	res, err := core.Build(ctx, g, p, core.Options{Mode: core.ModeDistributed, KeepClusters: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure workload: %dx%d grid + %d tails of length %d, %s\n",
		fc.Rows, fc.Cols, fc.Tails, fc.TailLen, p)
	fmt.Fprintf(w, "built in CONGEST: %d rounds, %d messages\n\n", res.TotalRounds, res.Messages)

	// Recompute phase-0 internals for the renderings.
	centers := res.P[0].Centers()
	nn := protocols.CentralNearNeighbors(g, centers, p.Deg[0], p.Delta[0])
	var popular []int
	for _, c := range centers {
		if nn.Popular[c] {
			popular = append(popular, c)
		}
	}
	rs := protocols.CentralRulingSet(g, popular, p.RulingSetQ(0), p.C, g.N())

	figure1(w, fc, res, popular, rs)
	figure2(w, g, fc, res)
	figure3(w, g, fc, p, popular, rs)
	figure4(w, g, p, res, rs)
	figure5(w, g, p, res, nn)
	figure6(w, g, p, res)
	figure78(w, g, p, res)
	return nil
}

// figure1 — superclusters grown around chosen popular centers; every
// popular center is covered (Lemma 2.4).
func figure1(w io.Writer, fc FigureConfig, res *core.Result, popular, rs []int) {
	fmt.Fprintf(w, "Figure 1 — superclustering of phase 0\n")
	fmt.Fprintf(w, "  popular centers |W_0| = %d, ruling set |RS_0| = %d, superclusters |P_1| = %d\n",
		len(popular), len(rs), res.P[1].Len())
	// Lemma 2.4: popular ⊆ superclustered (i.e. no popular center in U_0).
	inU := make(map[int]bool)
	for _, cl := range res.U[0].Clusters() {
		inU[cl.Center] = true
	}
	violations := 0
	for _, c := range popular {
		if inU[c] {
			violations++
		}
	}
	fmt.Fprintf(w, "  Lemma 2.4 (all popular centers superclustered): violations = %d %s\n",
		violations, passFail(violations == 0))
	fmt.Fprintf(w, "  cluster map of P_1 (%s):\n%s\n",
		trace.Legend(), indent(trace.GridClusters(fc.Rows, fc.Cols, res.P[1])))
}

// figure2 — the BFS trees of new superclusters are in H.
func figure2(w io.Writer, g *graph.Graph, fc FigureConfig, res *core.Result) {
	fmt.Fprintf(w, "Figure 2 — supercluster tree paths added to H\n")
	// Every member of a P_1 cluster reaches its center inside H within
	// R_1 (Lemma 2.3 consequence).
	rad := cluster.MaxRadius(res.Spanner, res.P[1])
	fmt.Fprintf(w, "  Rad(P_1) in H = %d, bound R_1 = %d %s\n",
		rad, res.Params.R[1], passFail(rad >= 0 && rad <= res.Params.R[1]))
	fmt.Fprintf(w, "  spanner skeleton on the grid:\n%s\n",
		indent(trace.GridEdges(fc.Rows, fc.Cols, res.Spanner)))
}

// figure3 — δ-neighborhoods of ruling-set members are pairwise disjoint.
func figure3(w io.Writer, g *graph.Graph, fc FigureConfig, p *params.Params, popular, rs []int) {
	fmt.Fprintf(w, "Figure 3 — ruling set separation (phase 0)\n")
	sepOK, domOK := protocols.VerifyRulingSet(g, popular, rs, p.RulingSetQ(0), p.SuperclusterDepth(0))
	fmt.Fprintf(w, "  (2*delta+1)-separation: %s   (2/rho_hat)*delta-domination: %s\n",
		passFail(sepOK), passFail(domOK))
	// Disjoint delta-neighborhoods follow from separation > 2*delta.
	overlaps := 0
	for i, a := range rs {
		da := g.BFSBounded(a, p.Delta[0])
		for _, b := range rs[i+1:] {
			db := g.BFSBounded(b, p.Delta[0])
			for v := 0; v < g.N(); v++ {
				if da[v] <= p.Delta[0] && db[v] <= p.Delta[0] {
					overlaps++
					break
				}
			}
		}
	}
	fmt.Fprintf(w, "  pairwise delta-neighborhood overlaps: %d %s\n", overlaps, passFail(overlaps == 0))
	marks := make(map[int]rune)
	for _, c := range popular {
		marks[c] = 'w'
	}
	for _, c := range rs {
		marks[c] = 'R'
	}
	fmt.Fprintf(w, "  W_0 ('w') and RS_0 ('R') on the grid:\n%s\n",
		indent(trace.GridMarks(fc.Rows, fc.Cols, marks)))
}

// figure4 — forest root paths: superclustered centers are near their new
// center inside H.
func figure4(w io.Writer, g *graph.Graph, p *params.Params, res *core.Result, rs []int) {
	fmt.Fprintf(w, "Figure 4 — root paths of the supercluster forest\n")
	depth := p.SuperclusterDepth(0)
	worst, bad := int32(0), 0
	for _, cl := range res.P[1].Clusters() {
		dh := res.Spanner.BFS(cl.Center)
		// Old centers absorbed into this supercluster: members that were
		// centers of P_0 (phase 0: all vertices are centers, so measure
		// over members).
		for _, m := range cl.Members {
			if dh[m] > worst {
				worst = dh[m]
			}
			if dh[m] > depth+p.R[0] || dh[m] < 0 {
				bad++
			}
		}
	}
	fmt.Fprintf(w, "  max d_H(new center, absorbed center) = %d, bound (2/rho_hat)*delta_0 = %d, violations = %d %s\n",
		worst, depth, bad, passFail(bad == 0))
	fmt.Fprintln(w)
}

// figure5 — interconnection paths: Lemma 2.14 on phase 0.
func figure5(w io.Writer, g *graph.Graph, p *params.Params, res *core.Result, nn protocols.NNResult) {
	fmt.Fprintf(w, "Figure 5 — interconnection of unsuperclustered clusters\n")
	checked, bad := 0, 0
	for _, cl := range res.U[0].Clusters() {
		rc := cl.Center
		dG := g.BFSBounded(rc, p.Delta[0])
		dH := res.Spanner.BFS(rc)
		for v := 0; v < g.N(); v++ {
			if v != rc && dG[v] <= p.Delta[0] {
				checked++
				if dH[v] != dG[v] {
					bad++
				}
			}
		}
	}
	fmt.Fprintf(w, "  Lemma 2.14 shortest-path pairs checked = %d, violations = %d %s\n\n",
		checked, bad, passFail(bad == 0))
}

// figure6 — Lemma 2.15 / eq. 12: for neighboring clusters C in U_j,
// C' in U_i with j < i, every w in C has d_H(w, r_C') <= 2R_i + 1.
func figure6(w io.Writer, g *graph.Graph, p *params.Params, res *core.Result) {
	fmt.Fprintf(w, "Figure 6 — neighboring clusters across phases (Lemma 2.15)\n")
	phaseOf := make([]int, g.N())
	clusterOf := make([]*cluster.Cluster, g.N())
	for i, u := range res.U {
		cls := u.Clusters()
		for ci := range cls {
			cl := &cls[ci]
			for _, m := range cl.Members {
				phaseOf[m] = i
				clusterOf[m] = cl
			}
		}
	}
	type key struct{ center int }
	distH := make(map[key][]int32)
	checked, bad := 0, 0
	g.Edges(func(z, zp int) {
		j, i := phaseOf[z], phaseOf[zp]
		w1, w2 := z, zp
		if j == i {
			return
		}
		if j > i {
			j, i = i, j
			w1, w2 = zp, z
		}
		_ = w1
		cPrime := clusterOf[w2]
		dh, ok := distH[key{cPrime.Center}]
		if !ok {
			dh = res.Spanner.BFS(cPrime.Center)
			distH[key{cPrime.Center}] = dh
		}
		bound := 2*p.R[i] + 1
		// Lemma 2.15 bounds d_H(w, r_C') for every w in the *lower*-phase
		// cluster C.
		for _, w := range clusterOf[w1].Members {
			checked++
			if dh[w] > bound || dh[w] < 0 {
				bad++
			}
		}
	})
	fmt.Fprintf(w, "  member-to-neighboring-center pairs checked = %d, violations of 2R_i+1 = %d %s\n\n",
		checked, bad, passFail(bad == 0))
}

// figure78 — Figures 7 and 8: stretch by distance scale. Figure 7's
// segment argument bounds short-range stretch, Figure 8's segmentation
// gives the end-to-end bound; we report the measured stretch per
// distance bucket and check the final (1+eps', beta) bound.
func figure78(w io.Writer, g *graph.Graph, p *params.Params, res *core.Result) {
	fmt.Fprintf(w, "Figures 7 and 8 — stretch by distance scale\n")
	type bucket struct {
		pairs    int64
		worstAdd int32
		sumRatio float64
	}
	buckets := make(map[int]*bucket)
	bucketOf := func(d int32) int {
		b := 0
		for x := int32(1); x < d; x *= 2 {
			b++
		}
		return b
	}
	maxD := int32(0)
	for u := 0; u < g.N(); u++ {
		dg := g.BFS(u)
		dh := res.Spanner.BFS(u)
		for v := u + 1; v < g.N(); v++ {
			if dg[v] == graph.Infinity {
				continue
			}
			if dg[v] > maxD {
				maxD = dg[v]
			}
			bi := bucketOf(dg[v])
			bk := buckets[bi]
			if bk == nil {
				bk = &bucket{}
				buckets[bi] = bk
			}
			bk.pairs++
			if add := dh[v] - dg[v]; add > bk.worstAdd {
				bk.worstAdd = add
			}
			bk.sumRatio += float64(dh[v]) / float64(dg[v])
		}
	}
	t := stats.NewTable("  measured stretch by d_G bucket",
		"d_G range", "pairs", "worst additive", "mean ratio",
		fmt.Sprintf("bound (1+%.2f)d+%d ok", p.EpsPrime(), p.BetaInt()))
	keys := slices.Sorted(maps.Keys(buckets))
	allOK := true
	for _, k := range keys {
		bk := buckets[k]
		lo := int32(1)
		for i := 0; i < k; i++ {
			lo *= 2
		}
		hi := lo*2 - 1
		if k == 0 {
			lo, hi = 1, 1
		}
		// Bound check at the bucket's lower end (worst case for the
		// additive share).
		ok := float64(bk.worstAdd) <= p.EpsPrime()*float64(hi)+float64(p.BetaInt())+1e-9
		if !ok {
			allOK = false
		}
		t.Add(fmt.Sprintf("[%d,%d]", lo, hi), stats.I64(bk.pairs),
			stats.Itoa(int(bk.worstAdd)), stats.F(bk.sumRatio/float64(bk.pairs), 4),
			passFail(ok))
	}
	t.Render(w)
	fmt.Fprintf(w, "  Corollary 2.18 bound over all pairs: %s\n\n", passFail(allOK))
}

func passFail(ok bool) string {
	if ok {
		return "[PASS]"
	}
	return "[FAIL]"
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
