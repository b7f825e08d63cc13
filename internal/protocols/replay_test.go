package protocols_test

import (
	"math/rand"
	"slices"
	"testing"

	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

// randomCenters draws each vertex as a center with probability p.
func randomCenters(r *rand.Rand, n int, p float64) []int {
	var cs []int
	for v := 0; v < n; v++ {
		if r.Float64() < p {
			cs = append(cs, v)
		}
	}
	return cs
}

// centralRun is the centralized twin's run, with its transcript.
func centralRun(g *graph.Graph, centers []int, deg int, dl int32) protocols.NNRun {
	nn, tr := protocols.CentralNearNeighborsRec(g, centers, deg, dl, protocols.NewTranscriptRecorder(g.N()))
	return protocols.NNRun{Centers: centers, NN: nn, Transcript: tr}
}

// referenceRun is the map-based reference's run, with its transcript.
func referenceRun(g *graph.Graph, centers []int, deg int, dl int32) protocols.NNRun {
	nn, tr, _ := protocols.ReferenceNearNeighbors(g, centers, deg, dl, protocols.NewTranscriptRecorder(g.N()))
	return protocols.NNRun{Centers: centers, NN: nn, Transcript: tr}
}

// The replay's table and transcript must be bit-identical to a
// from-scratch run of the reference on the patched graph — across random graphs,
// random deltas, random center sets, and center-set changes between the
// runs.
func TestReplayNNMatchesFromScratch(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Graph
	}
	workloads := []workload{
		{"gnp", gen.GNP(150, 0.05, 11, true)},
		{"grid", gen.Grid(12, 12)},
		{"torus", gen.Torus(10, 10)},
	}
	for _, w := range workloads {
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			deg := 2 + r.Intn(4)
			dl := int32(2 + r.Intn(6))
			prev := centralRun(w.g, randomCenters(r, w.g.N(), 0.15), deg, dl)

			b := delta.RandomBatch(w.g, 1+r.Intn(6), uint64(seed))
			gNew, err := delta.Apply(w.g, b)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}

			// Same centers, and a perturbed center set (some vertices
			// gain or lose centerhood between the runs).
			centerSets := [][]int{prev.Centers}
			perturbed := slices.Clone(prev.Centers)
			if len(perturbed) > 1 {
				perturbed = slices.Delete(perturbed, 0, 1)
			}
			extra := r.Intn(w.g.N())
			if !slices.Contains(perturbed, extra) {
				perturbed = append(perturbed, extra)
				slices.Sort(perturbed)
			}
			centerSets = append(centerSets, perturbed)

			for ci, centers := range centerSets {
				run, tracked := protocols.ReplayNearNeighbors(gNew, &prev, centers, b.Endpoints(), deg, dl)
				want := referenceRun(gNew, centers, deg, dl)
				if d := protocols.DiffNNTables(gNew.N(), dl, run.NN, run.Transcript, want.NN, want.Transcript); d != "" {
					t.Fatalf("%s seed %d set %d: %s", w.name, seed, ci, d)
				}
				if tracked <= 0 || tracked > gNew.N() {
					t.Fatalf("%s seed %d: implausible tracked count %d", w.name, seed, tracked)
				}
			}
		}
	}
}

// Replays must chain: a second delta replayed against the first
// replay's run equals a from-scratch reference run on the doubly patched
// graph.
func TestReplayNNChains(t *testing.T) {
	g0 := gen.GNP(130, 0.06, 23, true)
	deg, dl := 3, int32(5)
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		run := centralRun(g0, randomCenters(r, g0.N(), 0.2), deg, dl)
		g := g0
		for step := 0; step < 3; step++ {
			b := delta.RandomBatch(g, 1+r.Intn(5), uint64(10*seed)+uint64(step))
			gNew, err := delta.Apply(g, b)
			if err != nil {
				t.Fatal(err)
			}
			next, _ := protocols.ReplayNearNeighbors(gNew, &run, run.Centers, b.Endpoints(), deg, dl)
			want := referenceRun(gNew, run.Centers, deg, dl)
			if d := protocols.DiffNNTables(gNew.N(), dl, next.NN, next.Transcript, want.NN, want.Transcript); d != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, d)
			}
			g, run = gNew, next
		}
	}
}
