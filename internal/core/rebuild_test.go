package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
)

// churnBatch draws k random deletions and k random insertions against g.
func churnBatch(r *rand.Rand, g *graph.Graph, k int) *delta.Batch {
	var edges []delta.Edge
	g.Edges(func(u, v int) {
		edges = append(edges, delta.Edge{U: int32(u), V: int32(v)})
	})
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if k > len(edges) {
		k = len(edges)
	}
	b := &delta.Batch{Delete: append([]delta.Edge(nil), edges[:k]...)}
	n := g.N()
	for len(b.Insert) < k {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || g.HasEdge(int(u), int(v)) {
			continue
		}
		e := delta.Edge{U: min(u, v), V: max(u, v)}
		dup := false
		for _, x := range b.Insert {
			if x == e {
				dup = true
				break
			}
		}
		if !dup {
			b.Insert = append(b.Insert, e)
		}
	}
	return b
}

// requireSameResult asserts the rebuild invariant: identical spanner
// fingerprint and identical per-phase statistics against a from-scratch
// build of the patched graph.
func requireSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	gm, gh := graph.Fingerprint(got.Spanner)
	wm, wh := graph.Fingerprint(want.Spanner)
	if gm != wm || gh != wh {
		t.Fatalf("%s: spanner fingerprints differ: (%d,%s) vs (%d,%s)", tag, gm, gh, wm, wh)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: phase counts differ", tag)
	}
	for i := range got.Phases {
		gp, wp := got.Phases[i], want.Phases[i]
		if gp.Clusters != wp.Clusters || gp.Popular != wp.Popular ||
			gp.RulingSet != wp.RulingSet || gp.Unclustered != wp.Unclustered ||
			gp.EdgesSC != wp.EdgesSC || gp.EdgesIC != wp.EdgesIC {
			t.Fatalf("%s phase %d: stats differ:\n rebuild %+v\n scratch %+v", tag, i, gp, wp)
		}
	}
	if got.TotalRounds != want.TotalRounds {
		t.Fatalf("%s: rounds differ: rebuild %d scratch %d", tag, got.TotalRounds, want.TotalRounds)
	}
}

// A delta rebuild must be indistinguishable — spanner fingerprint, phase
// stats, round counts — from a from-scratch build of the patched graph,
// in every mode.
func TestRebuildMatchesFullBuild(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"centralized", Options{Mode: ModeCentralized}},
		{"distributed", Options{Mode: ModeDistributed}},
	}
	for _, c := range testConfigs(t) {
		if c.name == "path-guarantee" {
			continue // large schedule; rebuild covered by the other configs
		}
		for _, m := range modes {
			if m.name != "centralized" && c.name != "gnp-demo" {
				continue // mode sweep on one workload keeps the matrix tractable
			}
			opts := m.opts
			opts.KeepRebuildState = true
			prev := build(t, c, opts)
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				b := churnBatch(r, c.g, 1+r.Intn(5))
				got, err := Rebuild(context.Background(), prev, b, opts)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", c.name, m.name, seed, err)
				}
				if got.Tracked <= 0 {
					t.Fatalf("%s/%s seed %d: no tracked vertices reported", c.name, m.name, seed)
				}
				g2, err := delta.Apply(c.g, b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(context.Background(), g2, mustParams(t, c), m.opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, c.name+"/"+m.name, got, want)
			}
		}
	}
}

// Rebuilds must chain: each result carries fresh rebuild state, so a
// churn sequence applies batch after batch without a full build.
func TestRebuildChains(t *testing.T) {
	c := testConfigs(t)[1] // gnp-demo
	opts := Options{Mode: ModeCentralized, KeepRebuildState: true}
	cur := build(t, c, opts)
	g := c.g
	r := rand.New(rand.NewSource(77))
	for step := 0; step < 4; step++ {
		b := churnBatch(r, g, 1+r.Intn(4))
		next, err := Rebuild(context.Background(), cur, b, opts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g2, err := delta.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(context.Background(), g2, mustParams(t, c), Options{Mode: ModeCentralized})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "chain", next, want)
		cur, g = next, g2
	}
}

// Randomized churn chains must hold the rebuild invariant in every mode,
// and with every simulator round inline and dispatched:
// delta.RandomBatch streams — the same generator the benchmarks and the
// CLI use — applied step after step, cross-checked against a
// from-scratch build of each patched graph.
func TestRebuildChurnEngines(t *testing.T) {
	c := testConfigs(t)[1] // gnp-demo
	modes := []struct {
		name   string
		opts   Options
		cutoff int // the simulator's forced fan-out cutoff
	}{
		{"centralized", Options{Mode: ModeCentralized}, math.MaxInt},
		{"distributed", Options{Mode: ModeDistributed}, math.MaxInt},
		{"dispatched", Options{Mode: ModeDistributed}, 0},
	}
	for _, m := range modes {
		restore := congest.SetInlineWorkCutoff(m.cutoff)
		for seed := uint64(1); seed <= 2; seed++ {
			opts := m.opts
			opts.KeepRebuildState = true
			cur := build(t, c, opts)
			g := c.g
			for step := 0; step < 3; step++ {
				b := delta.RandomBatch(g, 3, seed*1000+uint64(step))
				next, err := Rebuild(context.Background(), cur, b, opts)
				if err != nil {
					t.Fatalf("%s seed %d step %d: %v", m.name, seed, step, err)
				}
				g2, err := delta.Apply(g, b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(context.Background(), g2, mustParams(t, c), m.opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, m.name, next, want)
				cur, g = next, g2
			}
		}
		restore()
	}
}

// Rebuild without retained state is a usage error.
func TestRebuildRequiresState(t *testing.T) {
	c := testConfigs(t)[0]
	prev := build(t, c, Options{Mode: ModeCentralized})
	if _, err := Rebuild(context.Background(), prev, &delta.Batch{}, Options{}); err == nil {
		t.Fatal("Rebuild accepted a result without rebuild state")
	}
}

// Replayed NN steps must appear in the metrics stream, marked, with the
// schedule budget charged.
func TestRebuildStepMetricsMarkReplayed(t *testing.T) {
	c := testConfigs(t)[1]
	opts := Options{Mode: ModeDistributed, KeepRebuildState: true}
	prev := build(t, c, opts)
	r := rand.New(rand.NewSource(9))
	b := churnBatch(r, c.g, 2)
	got, err := Rebuild(context.Background(), prev, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, s := range got.Steps {
		if s.Replayed {
			replayed++
			if s.Rounds <= 0 {
				t.Errorf("replayed step %s phase %d reports %d rounds", s.Step, s.Phase, s.Rounds)
			}
			if s.Messages != 0 {
				t.Errorf("replayed step %s phase %d moved %d messages", s.Step, s.Phase, s.Messages)
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no replayed steps recorded in an incremental rebuild")
	}
	for _, s := range prev.Steps {
		if s.Replayed {
			t.Fatal("full build recorded a replayed step")
		}
	}
}

// A batch whose replay tracks most of the graph stays one replayed
// pass: Rebuild still equals Build on the patched graph, still carries
// rebuild state, and streams each of its steps once, in order.
func TestRebuildLargeDelta(t *testing.T) {
	ctx := context.Background()
	g := gen.GNP(2048, 20.0/2047, 1, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	b := delta.RandomBatch(g, 64, 7)
	g2, err := delta.Apply(g, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeCentralized, ModeDistributed} {
		prev, err := Build(ctx, g, p, Options{Mode: mode, KeepRebuildState: true})
		if err != nil {
			t.Fatal(err)
		}
		var seen []protocols.StepMetrics
		got, err := Rebuild(ctx, prev, b, Options{OnStep: func(sm protocols.StepMetrics) { seen = append(seen, sm) }})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		want, err := Build(ctx, g2, p, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, mode.String(), got, want)
		if !got.Incremental || got.Rebuild == nil {
			t.Fatalf("%s: incremental %v, rebuild state %v", mode, got.Incremental, got.Rebuild != nil)
		}
		// A quarter of n once sent this batch to a full build.
		if got.Tracked != 1664 {
			t.Errorf("%s: tracked %d, want 1664", mode, got.Tracked)
		}
		if !slices.Equal(seen, got.Steps) {
			t.Fatalf("%s: OnStep streamed %d records for %d steps, or out of order", mode, len(seen), len(got.Steps))
		}
	}
}

// The replay's frontier is pinned: a chain of growing batches on a fixed
// graph must track exactly these vertex counts. A replay that recomputes
// a different vertex set than its join rule names moves them.
func TestRebuildFrontierPinned(t *testing.T) {
	g := gen.GNP(600, 10.0/599, 5, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Build(context.Background(), g, p, Options{Mode: ModeCentralized, KeepRebuildState: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ k, tracked int }{{1, 21}, {2, 33}, {4, 94}, {8, 192}, {16, 726}, {2, 69}, {3, 58}}
	for step, w := range want {
		b := delta.RandomBatch(g, w.k, uint64(step+1))
		next, err := Rebuild(context.Background(), cur, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if next.Tracked != w.tracked {
			t.Errorf("step %d (%d+%d ops): tracked %d, want %d", step, w.k, w.k, next.Tracked, w.tracked)
		}
		if g, err = delta.Apply(g, b); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
}
