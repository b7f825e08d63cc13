package cluster

import (
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// asg builds a dense Assignment from a literal old-center → new-center
// map, the test-friendly face of the columnar merge input.
func asg(n int, m map[int]int) *Assignment {
	a := NewAssignment(n)
	for k, v := range m {
		a.Set(k, int32(v))
	}
	return a
}

func TestSingletons(t *testing.T) {
	c := Singletons(5)
	if c.Len() != 5 {
		t.Fatalf("Len=%d", c.Len())
	}
	for v := 0; v < 5; v++ {
		if !c.IsCenter(v) {
			t.Errorf("vertex %d should be a center", v)
		}
		cl := c.ClusterOf(v)
		if cl.Center != v || len(cl.Members) != 1 {
			t.Errorf("cluster of %d malformed: %+v", v, cl)
		}
	}
	cs := c.Centers()
	for i, v := range cs {
		if v != i {
			t.Errorf("Centers()[%d]=%d", i, v)
		}
	}
}

func TestNewCollectionValidation(t *testing.T) {
	// Overlapping clusters rejected.
	_, err := NewCollection(4, []Cluster{
		{Center: 0, Members: []int32{0, 1}},
		{Center: 1, Members: []int32{1, 2}},
	})
	if err == nil {
		t.Error("overlap accepted")
	}
	// Center outside members rejected.
	_, err = NewCollection(4, []Cluster{{Center: 3, Members: []int32{0, 1}}})
	if err == nil {
		t.Error("center not in members accepted")
	}
	// Out-of-range member rejected.
	_, err = NewCollection(2, []Cluster{{Center: 0, Members: []int32{0, 5}}})
	if err == nil {
		t.Error("out-of-range member accepted")
	}
	// Partial cover is fine.
	c, err := NewCollection(4, []Cluster{{Center: 2, Members: []int32{2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.ClusterOf(0) != nil {
		t.Error("uncovered vertex has a cluster")
	}
	if c.IsCenter(3) {
		t.Error("member 3 reported as center")
	}
}

func TestMerge(t *testing.T) {
	base := Singletons(6)
	// Supercluster: 0 absorbs 1 and 2; 4 absorbs 5; 3 left out.
	next, err := base.Merge(6, asg(6, map[int]int{0: 0, 1: 0, 2: 0, 4: 4, 5: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != 2 {
		t.Fatalf("Len=%d, want 2", next.Len())
	}
	c0 := next.ClusterOf(1)
	if c0 == nil || c0.Center != 0 || len(c0.Members) != 3 {
		t.Errorf("cluster of 1: %+v", c0)
	}
	if next.ClusterOf(3) != nil {
		t.Error("vertex 3 should be unclustered")
	}
	// Merging a non-center errors.
	two, err := base.Merge(6, asg(6, map[int]int{0: 0, 1: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.Merge(6, asg(6, map[int]int{1: 1})); err == nil {
		t.Error("merging non-center accepted")
	}
}

func TestSubset(t *testing.T) {
	base := Singletons(6)
	odd, err := base.Subset(6, func(c int) bool { return c%2 == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if odd.Len() != 3 {
		t.Fatalf("Len=%d", odd.Len())
	}
	for _, cl := range odd.Clusters {
		if cl.Center%2 != 1 {
			t.Errorf("kept center %d", cl.Center)
		}
	}
}

func TestRadius(t *testing.T) {
	g := gen.Path(6)
	cl := Cluster{Center: 2, Members: []int32{0, 1, 2, 3}}
	if r := Radius(g, cl); r != 2 {
		t.Errorf("Radius=%d, want 2", r)
	}

	// A member unreachable from the center yields -1.
	b := graph.NewBuilder(6)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	disc := b.Build()
	if r := Radius(disc, Cluster{Center: 0, Members: []int32{0, 5}}); r != -1 {
		t.Errorf("Radius on disconnected cluster=%d, want -1", r)
	}
}

func TestMaxRadius(t *testing.T) {
	g := gen.Path(8)
	col, err := NewCollection(8, []Cluster{
		{Center: 1, Members: []int32{0, 1, 2}},
		{Center: 5, Members: []int32{4, 5, 6, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := MaxRadius(g, col); r != 2 {
		t.Errorf("MaxRadius=%d, want 2", r)
	}
}

func TestVerifyPartition(t *testing.T) {
	a, err := NewCollection(6, []Cluster{
		{Center: 0, Members: []int32{0, 1}},
		{Center: 2, Members: []int32{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bcol, err := NewCollection(6, []Cluster{
		{Center: 4, Members: []int32{3, 4, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPartition(6, []*Collection{a, bcol}); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	// Missing vertex 5.
	ccol, err := NewCollection(6, []Cluster{
		{Center: 4, Members: []int32{3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPartition(6, []*Collection{a, ccol}); err == nil {
		t.Error("incomplete cover accepted")
	}
	// Double cover.
	dcol, err := NewCollection(6, []Cluster{
		{Center: 1, Members: []int32{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPartition(6, []*Collection{a, bcol, dcol}); err == nil {
		t.Error("double cover accepted")
	}
}
