package graph

import (
	"testing"
)

// Exercise the sorted-run machinery well past the block size:
// duplicates must be rejected whether the original copy sits in a
// bucket's unsorted tail, a small run, or a run that has been merged
// several times, and the built graph must contain exactly the accepted
// edges.
func TestBuilderDedupAcrossRunBoundaries(t *testing.T) {
	const n = 100
	b := NewBuilder(n)
	type edge struct{ u, v int }
	var added []edge
	// ~2000 edges in a scattered (non-sorted) insertion order: buckets
	// of up to 45 entries, enough for several carries and run merges.
	for step := 1; step <= 45; step++ {
		for u := 0; u < n; u++ {
			v := (u + step) % n
			if u < v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
				}
				added = append(added, edge{u, v})
			}
		}
	}
	if b.NumEdges() != len(added) {
		t.Fatalf("NumEdges=%d, added %d", b.NumEdges(), len(added))
	}
	// Every added edge is a duplicate now, in both orientations.
	for _, e := range []edge{added[0], added[len(added)/2], added[len(added)-1]} {
		if err := b.AddEdge(e.u, e.v); err == nil {
			t.Errorf("duplicate {%d,%d} accepted", e.u, e.v)
		}
		if err := b.AddEdge(e.v, e.u); err == nil {
			t.Errorf("reversed duplicate {%d,%d} accepted", e.v, e.u)
		}
		if !b.HasEdge(e.u, e.v) || !b.HasEdge(e.v, e.u) {
			t.Errorf("HasEdge(%d,%d) false after add", e.u, e.v)
		}
	}
	// {0,99} only arises as (u=99, v=0), which the u<v filter skipped.
	if b.HasEdge(0, 99) {
		t.Error("HasEdge(0,99) true for never-added edge")
	}
	g := b.Build()
	if g.M() != len(added) {
		t.Fatalf("built graph has %d edges, want %d", g.M(), len(added))
	}
	for _, e := range added {
		if !g.HasEdge(e.u, e.v) {
			t.Fatalf("built graph missing {%d,%d}", e.u, e.v)
		}
	}
	// The builder stays usable after Build.
	if err := b.AddEdge(0, 99); err != nil {
		t.Errorf("post-Build AddEdge failed: %v", err)
	}
	if !b.HasEdge(0, 99) {
		t.Error("post-Build add not visible")
	}
}

// Add is the trusted path: it reports newness instead of erroring, and
// it shares one edge set with AddEdge.
func TestBuilderAdd(t *testing.T) {
	b := NewBuilder(5)
	if b.NumEdges() != 0 {
		t.Fatalf("fresh builder: NumEdges=%d", b.NumEdges())
	}
	if !b.Add(3, 1) {
		t.Error("first add not new")
	}
	if b.Add(1, 3) {
		t.Error("normalized duplicate reported new")
	}
	if err := b.AddEdge(1, 3); err == nil {
		t.Error("AddEdge accepted an edge Add had inserted")
	}
	if err := b.AddEdge(0, 4); err != nil || b.Add(4, 0) {
		t.Error("Add did not see an edge AddEdge had inserted")
	}
	if b.NumEdges() != 2 {
		t.Errorf("NumEdges=%d after two distinct edges", b.NumEdges())
	}
}

func TestBuilderAddPanicsOnInvalid(t *testing.T) {
	for _, e := range [][2]int{{2, 2}, {-1, 3}, {0, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d,%d) did not panic", e[0], e[1])
				}
			}()
			NewBuilder(5).Add(e[0], e[1])
		}()
	}
}

// Build compacts the buckets; Add must keep reporting newness against
// the compacted edges, and earlier graphs must not see later adds.
func TestBuilderAddAfterBuild(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1)
	g1 := b.Build()
	if !b.Add(2, 3) {
		t.Error("Add after Build not new")
	}
	if b.Add(0, 1) {
		t.Error("dedupe lost after Build compacted the buckets")
	}
	g2 := b.Build()
	if g1.M() != 1 || g2.M() != 2 {
		t.Errorf("graphs have %d and %d edges, want 1 and 2", g1.M(), g2.M())
	}
}

func TestBuilderEdgelessBuild(t *testing.T) {
	g := NewBuilder(3).Build()
	if g.N() != 3 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("edgeless emission: n=%d m=%d maxdeg=%d", g.N(), g.M(), g.MaxDegree())
	}
}

// Iteration is (u, v) ascending regardless of insertion order, with no
// global sort — the determinism-without-sorting property core relies on.
func TestBuilderAllCanonicalOrder(t *testing.T) {
	b := NewBuilder(100)
	// Insert in a scrambled order with enough volume to force carries.
	for i := 97; i >= 0; i-- {
		for j := i + 1; j < 100; j += 7 {
			b.Add(j, i) // reversed orientation on purpose
		}
	}
	var prev = [2]int32{-1, -1}
	count := 0
	for u, v := range b.All() {
		if u >= v {
			t.Fatalf("edge {%d,%d} not normalized", u, v)
		}
		if u < prev[0] || (u == prev[0] && v <= prev[1]) {
			t.Fatalf("iteration out of order: {%d,%d} after {%d,%d}", u, v, prev[0], prev[1])
		}
		prev = [2]int32{u, v}
		count++
	}
	if count != b.NumEdges() {
		t.Errorf("iterated %d edges, NumEdges=%d", count, b.NumEdges())
	}
}
