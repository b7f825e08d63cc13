package protocols_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
)

// toggleDelta draws k distinct vertex pairs and toggles each: a present
// edge is deleted, an absent one inserted. Unlike delta.RandomBatch it
// also works on complete graphs, where no insert exists.
func toggleDelta(r *rand.Rand, g *graph.Graph, k int) *delta.Batch {
	b := &delta.Batch{}
	seen := make(map[delta.Edge]bool)
	for len(seen) < k {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		e := delta.Edge{U: int32(min(u, v)), V: int32(max(u, v))}
		if seen[e] {
			continue
		}
		seen[e] = true
		if g.HasEdge(u, v) {
			b.Delete = append(b.Delete, e)
		} else {
			b.Insert = append(b.Insert, e)
		}
	}
	return b
}

// Every path through the shared NNState kernel — the distributed
// program, the centralized twin, and the replay of a random 4-op delta —
// must reproduce the map-based reference exactly:
// rows (keys, distances, ports), popularity and forward transcripts. The
// shapes include stars and cliques, where a vertex hears far more
// centers in one phase than the kernel's buffer holds, and the test
// requires that eviction to have happened at least once.
func TestNearNeighborsKernelMatchesReference(t *testing.T) {
	type shape struct {
		name string
		g    *graph.Graph
	}
	var shapes []shape
	for seed := uint64(1); seed <= 4; seed++ {
		n := 16 + 8*int(seed)
		shapes = append(shapes, shape{fmt.Sprintf("gnp-%d", n), gen.GNP(n, 0.15, seed, true)})
	}
	shapes = append(shapes,
		shape{"star-12", gen.Star(12)}, shape{"star-30", gen.Star(30)},
		shape{"clique-8", gen.Complete(8)}, shape{"clique-14", gen.Complete(14)},
		shape{"path-25", gen.Path(25)})

	capped := 0
	r := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		g, n := sh.g, sh.g.N()
		for deg := 1; deg <= 3; deg++ {
			for dl := int32(1); dl <= 4; dl++ {
				tag := fmt.Sprintf("%s deg %d delta %d", sh.name, deg, dl)
				var centers []int
				for v := 0; v < n; v++ {
					if r.Intn(3) > 0 {
						centers = append(centers, v)
					}
				}
				want, wantT, c := protocols.ReferenceNearNeighbors(g, centers, deg, dl, protocols.NewTranscriptRecorder(n))
				capped += c

				got, gotT := protocols.CentralNearNeighborsRec(g, centers, deg, dl, protocols.NewTranscriptRecorder(n))
				if d := protocols.DiffNNTables(n, dl, got, gotT, want, wantT); d != "" {
					t.Fatalf("%s: central vs reference: %s", tag, d)
				}

				isC := make([]bool, n)
				for _, c := range centers {
					isC[c] = true
				}
				rec := protocols.NewTranscriptRecorder(n)
				sim, err := congest.NewUniform(g, protocols.NewNearNeighborsRec(
					func(v int) bool { return isC[v] }, deg, dl, rec), congest.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.RunContext(context.Background(), protocols.NearNeighborsRounds(deg, dl)); err != nil {
					t.Fatal(err)
				}
				if d := protocols.DiffNNTables(n, dl, protocols.ExtractNN(sim), rec.Finish(), want, wantT); d != "" {
					t.Fatalf("%s: distributed vs reference: %s", tag, d)
				}

				b := toggleDelta(r, g, 4)
				gNew, err := delta.Apply(g, b)
				if err != nil {
					t.Fatal(err)
				}
				wantNew, wantNewT, c := protocols.ReferenceNearNeighbors(gNew, centers, deg, dl, protocols.NewTranscriptRecorder(n))
				capped += c
				prev := protocols.NNRun{Centers: centers, NN: want, Transcript: wantT}
				run, _ := protocols.ReplayNearNeighbors(gNew, &prev, centers, b.Endpoints(), deg, dl)
				if d := protocols.DiffNNTables(n, dl, run.NN, run.Transcript, wantNew, wantNewT); d != "" {
					t.Fatalf("%s: replay vs reference: %s", tag, d)
				}
			}
		}
	}
	if capped == 0 {
		t.Fatal("no vertex heard more than deg+1+|known| centers in a phase: the buffer's eviction went untested")
	}
	t.Logf("%d (vertex, phase) pairs exercised the bounded buffer's eviction", capped)
}

// nnSink keeps the benchmarked results alive.
var nnSink protocols.NNResult

// BenchmarkNearNeighbors times Algorithm 1 on the phase-1 instance of
// the served build: GNP-2048 with mean degree 20 at ε=1/3, κ=3, ρ=0.49
// (deg_1 = 42, δ_1 = 15, phase 1's real center set). "distributed" is
// one simulated session, "central" the centralized twin on the same
// inputs.
func BenchmarkNearNeighbors(b *testing.B) {
	g := gen.GNP(2048, 20.0/2047, 7, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p, core.Options{KeepRebuildState: true})
	if err != nil {
		b.Fatal(err)
	}
	centers := res.Rebuild.Phases[1].Centers
	deg, dl := p.Deg[1], p.Delta[1]
	isC := make([]bool, g.N())
	for _, c := range centers {
		isC[c] = true
	}
	b.Run("distributed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := congest.NewUniform(g, protocols.NewNearNeighborsRec(
				func(v int) bool { return isC[v] }, deg, dl, nil), congest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.RunContext(context.Background(), protocols.NearNeighborsRounds(deg, dl)); err != nil {
				b.Fatal(err)
			}
			nnSink = protocols.ExtractNN(sim)
		}
	})
	b.Run("central", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nnSink, _ = protocols.CentralNearNeighborsRec(g, centers, deg, dl, nil)
		}
	})
}

// TestNearNeighborsSkipsWhatTwinSkips runs every near-neighbors step of
// the golden matrix's paper builds (the graphs and parameter sets of
// testdata/golden_spanners.json) and requires the distributed program to
// skip exactly the (vertex, phase) pairs the centralized twin leaves out
// of its receivers. A change that stops skipping keeps every output and
// only runs slower, so this is the test that catches it.
func TestNearNeighborsSkipsWhatTwinSkips(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-256", gen.GNP(256, 16.0/256, 256, true)},
		{"gnp-600", gen.GNP(600, 20.0/600, 42, true)},
		{"grid-24x24", gen.Grid(24, 24)},
		{"torus-16x16", gen.Torus(16, 16)},
		{"tree-300", gen.RandomTree(300, 9)},
		{"communities", gen.Communities(6, 40, 0.3, 0.01, 5)},
		{"hypercube-8", gen.Hypercube(8)},
	}
	sets := []struct {
		eps   float64
		kappa int
		rho   float64
	}{{1.0 / 3, 3, 0.49}, {0.25, 4, 0.3}}
	skipped := 0
	for _, gr := range graphs {
		for _, ps := range sets {
			p, err := params.New(ps.eps, ps.kappa, ps.rho, gr.g.N())
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Build(context.Background(), gr.g, p, core.Options{KeepRebuildState: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, ph := range res.Rebuild.Phases {
				if len(ph.Centers) == 0 {
					continue
				}
				s, d := protocols.NNSkipsMatchTwin(gr.g, ph.Centers, p.Deg[i], p.Delta[i])
				if d != "" {
					t.Fatalf("%s κ=%d phase %d: %s", gr.name, ps.kappa, i, d)
				}
				skipped += s
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no (vertex, phase) pair was skipped")
	}
	t.Logf("%d (vertex, phase) pairs skipped", skipped)
}
