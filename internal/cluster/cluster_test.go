package cluster

import (
	"reflect"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

func TestSingletons(t *testing.T) {
	c := Singletons(5)
	if c.Len() != 5 {
		t.Fatalf("Len=%d", c.Len())
	}
	for i, cl := range c.Clusters() {
		if cl.Center != i || len(cl.Members) != 1 || cl.Members[0] != int32(i) {
			t.Errorf("cluster %d malformed: %+v", i, cl)
		}
	}
	cs := c.Centers()
	for i, v := range cs {
		if v != i {
			t.Errorf("Centers()[%d]=%d", i, v)
		}
	}
}

func TestNext(t *testing.T) {
	// P: {0,1} around 0, {2} around 2, {3,5} around 5, 4 unclustered.
	p := &Collection{Center: []int32{0, 0, 2, 5, -1, 5}}
	// Superclusters: 0 absorbs 2 and 5 roots its own. Only the centers'
	// roots are read, so the entries of 1, 3 and 4 are arbitrary.
	next := p.Next([]int64{0, 3, 0, 0, 0, 5})
	want := []Cluster{
		{Center: 0, Members: []int32{0, 1, 2}},
		{Center: 5, Members: []int32{3, 5}},
	}
	if got := next.Clusters(); !reflect.DeepEqual(got, want) {
		t.Errorf("Next: Clusters()=%+v, want %+v", got, want)
	}
	if next.Len() != 2 || !reflect.DeepEqual(next.Centers(), []int{0, 5}) {
		t.Errorf("Next: Len=%d Centers=%v", next.Len(), next.Centers())
	}
	// Dropping the superclustered center 0 leaves U = the clusters of 2
	// and 5.
	drop := NewAssignment(6)
	drop.Set(0)
	u := p.Without(drop)
	if !reflect.DeepEqual(u.Center, []int32{-1, -1, 2, 5, -1, 5}) {
		t.Errorf("Without: Center=%v", u.Center)
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
	// {0,1,2} around 1 and {4,5,6,7} around 5; 3 unclustered.
	col := &Collection{Center: []int32{1, 1, 1, -1, 5, 5, 5, 5}}
	if r := MaxRadius(g, col); r != 2 {
		t.Errorf("MaxRadius=%d, want 2", r)
	}
}

func TestVerifyPartition(t *testing.T) {
	a := &Collection{Center: []int32{0, 0, 2, -1, -1, -1}}
	b := &Collection{Center: []int32{-1, -1, -1, 4, 4, 4}}
	if err := VerifyPartition(6, []*Collection{a, b}); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		col  *Collection
	}{
		{"missing vertex 5", &Collection{Center: []int32{-1, -1, -1, 4, 4, -1}}},
		{"double cover", &Collection{Center: []int32{-1, 1, -1, 4, 4, 4}}},
		{"member under a non-center", &Collection{Center: []int32{-1, -1, -1, 4, 3, 4}}},
		{"short column", &Collection{Center: []int32{-1, -1, -1, 3}}},
	} {
		if err := VerifyPartition(6, []*Collection{a, tc.col}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
