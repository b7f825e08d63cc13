package graph

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustBuild(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {1, 4}})
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	g.Edges(func(u, v int) {
		if !back.HasEdge(u, v) {
			t.Errorf("edge %d-%d lost", u, v)
		}
	})
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a graph\n\n3 2\n# edges follow\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"three fields", "3 1\n0 1 2\n"},
		{"self loop", "3 1\n1 1\n"},
		{"out of range", "3 1\n0 7\n"},
		{"duplicate", "3 2\n0 1\n1 0\n"},
		{"edge count mismatch", "3 5\n0 1\n"},
		{"negative header", "-1 0\n"},
		{"non-integer edge", "3 1\n0 z\n"},
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}

func TestWriteEdgeListEmptyGraph(t *testing.T) {
	g := NewBuilder(4).Build()
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.M() != 0 {
		t.Errorf("n=%d m=%d", back.N(), back.M())
	}
}

// A header n past int32 vertex IDs is rejected with ErrVertexCount
// before anything is sized from it; the second input once allocated
// until the process died.
func TestReadEdgeListRejectsOversizedHeader(t *testing.T) {
	for _, in := range []string{
		"2147483648 0\n",
		"4294967297 1\n4294967296 0\n",
		"# comment first\n9223372036854775807 0\n",
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); !errors.Is(err, ErrVertexCount) {
			t.Errorf("%q: err = %v, want ErrVertexCount", in, err)
		}
	}
}

// The vertex count of an upload is untrusted: a header-only input must
// cost the CSR offsets and the degree count (8 bytes per vertex), not a
// builder bucket per vertex on top.
func TestReadEdgeListHeaderOnlyFootprint(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadEdgeList(strings.NewReader("1048576 0\n"))
	runtime.ReadMemStats(&after)
	if err != nil || g.N() != n || g.M() != 0 {
		t.Fatalf("ReadEdgeList = (%v, %v)", g, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 10*n {
		t.Errorf("header-only n=%d allocated %d bytes (%.1f per vertex, budget 10)", n, got, float64(got)/n)
	}
}
