package delta

import (
	"errors"
	"math/rand"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// randomBatch draws k deletions from g's edges and k insertions of
// absent edges, deterministically from r.
func randomBatch(r *rand.Rand, g *graph.Graph, k int) *Batch {
	var edges []Edge
	g.Edges(func(u, v int) {
		edges = append(edges, Edge{U: int32(u), V: int32(v)})
	})
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if k > len(edges) {
		k = len(edges)
	}
	b := &Batch{Delete: append([]Edge(nil), edges[:k]...)}
	n := g.N()
	for len(b.Insert) < k {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || g.HasEdge(int(u), int(v)) {
			continue
		}
		e := Edge{U: min(u, v), V: max(u, v)}
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

// fromScratch rebuilds the patched edge set without the merge path, as
// the independent reference for Apply.
func fromScratch(t *testing.T, g *graph.Graph, b *Batch) *graph.Graph {
	t.Helper()
	type pair = Edge
	drop := make(map[pair]bool, len(b.Delete))
	for _, e := range b.Delete {
		drop[e] = true
	}
	var edges []pair
	g.Edges(func(u, v int) {
		if e := (pair{U: int32(u), V: int32(v)}); !drop[e] {
			edges = append(edges, e)
		}
	})
	edges = append(edges, b.Insert...)
	gb := graph.NewBuilder(g.N())
	for _, e := range edges {
		if err := gb.AddEdge(int(e.U), int(e.V)); err != nil {
			t.Fatal(err)
		}
	}
	return gb.Build()
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		b    Batch
	}{
		{"self-loop", Batch{Insert: []Edge{{3, 3}}}},
		{"out-of-range", Batch{Delete: []Edge{{0, 99}}}},
		{"negative", Batch{Insert: []Edge{{-1, 2}}}},
		{"both-lists", Batch{Insert: []Edge{{1, 2}}, Delete: []Edge{{2, 1}}}},
	}
	for _, c := range cases {
		if err := c.b.Normalize(10); err == nil {
			t.Errorf("%s: Normalize accepted invalid batch", c.name)
		}
	}
	b := Batch{Insert: []Edge{{5, 2}, {2, 5}, {1, 3}}}
	if err := b.Normalize(10); err != nil {
		t.Fatal(err)
	}
	if len(b.Insert) != 2 || b.Insert[0] != (Edge{1, 3}) || b.Insert[1] != (Edge{2, 5}) {
		t.Errorf("Normalize canonical form wrong: %v", b.Insert)
	}
}

// A batch that disagrees with the graph is an ErrConflict; a malformed
// one is not.
func TestApplyRejectsDisagreement(t *testing.T) {
	g := gen.Grid(4, 4)
	if _, err := Apply(g, &Batch{Insert: []Edge{{0, 1}}}); !errors.Is(err, ErrConflict) {
		t.Errorf("insert of a present edge: err = %v, want ErrConflict", err)
	}
	if _, err := Apply(g, &Batch{Delete: []Edge{{0, 15}}}); !errors.Is(err, ErrConflict) {
		t.Errorf("delete of an absent edge: err = %v, want ErrConflict", err)
	}
	if err := Check(g, &Batch{Insert: []Edge{{0, 16}}}); err == nil || errors.Is(err, ErrConflict) {
		t.Errorf("out-of-range insert: err = %v, want a non-conflict error", err)
	}
}

// Apply's merged-stream CSR must be bit-identical (same fingerprint,
// same port numbering) to building the patched edge set from scratch.
func TestApplyMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := gen.GNP(120, 0.08, uint64(seed), true)
		b := randomBatch(r, g, 1+r.Intn(12))
		got, err := Apply(g, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := fromScratch(t, g, b)
		gm, gh := graph.Fingerprint(got)
		wm, wh := graph.Fingerprint(want)
		if gm != wm || gh != wh {
			t.Fatalf("seed %d: patched graph differs: (%d,%s) vs (%d,%s)", seed, gm, gh, wm, wh)
		}
		for v := 0; v < got.N(); v++ {
			gn, wn := got.Neighbors(v), want.Neighbors(v)
			if len(gn) != len(wn) {
				t.Fatalf("seed %d: vertex %d degree differs", seed, v)
			}
			for i := range gn {
				if gn[i] != wn[i] {
					t.Fatalf("seed %d: vertex %d port %d differs", seed, v, i)
				}
			}
		}
	}
}

func TestEndpoints(t *testing.T) {
	b := &Batch{Insert: []Edge{{4, 7}}, Delete: []Edge{{2, 4}}}
	got := b.Endpoints()
	want := []int{2, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("Endpoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Endpoints = %v, want %v", got, want)
		}
	}
}

// RandomBatch caps its inserts at the absent pairs: on a complete graph
// it returns deletes only, and on a complete graph less one edge it
// inserts that edge once, however large k.
func TestRandomBatchCapsInserts(t *testing.T) {
	k6 := gen.Complete(6)
	b := RandomBatch(k6, 1, 1)
	if len(b.Delete) != 1 || len(b.Insert) != 0 {
		t.Fatalf("complete graph, k=1: %d deletes, %d inserts; want 1, 0", len(b.Delete), len(b.Insert))
	}
	missing := Edge{U: 2, V: 4}
	g, err := Apply(k6, &Batch{Delete: []Edge{missing}})
	if err != nil {
		t.Fatal(err)
	}
	b = RandomBatch(g, 3, 1)
	if len(b.Delete) != 3 || len(b.Insert) != 1 || b.Insert[0] != missing {
		t.Fatalf("complete graph less %v, k=3: deletes %v, inserts %v", missing, b.Delete, b.Insert)
	}
	if _, err := Apply(g, b); err != nil {
		t.Fatal(err)
	}
}
