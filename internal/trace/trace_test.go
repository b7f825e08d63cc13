package trace

import (
	"strings"
	"testing"

	"nearspan/internal/cluster"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

func TestGridClusters(t *testing.T) {
	col := &cluster.Collection{Center: []int32{0, 0, -1, 0, -1, 5}}
	out := GridClusters(2, 3, col)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %q", out)
	}
	if lines[0] != "A a ." {
		t.Errorf("row 0 = %q", lines[0])
	}
	if lines[1] != "a . B" {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestGridMarks(t *testing.T) {
	out := GridMarks(2, 2, map[int]rune{0: 'R', 3: 'w'})
	want := "R .\n. w\n"
	if out != want {
		t.Errorf("got %q want %q", out, want)
	}
}

func TestGridEdgesFullGrid(t *testing.T) {
	g := gen.Grid(2, 3)
	out := GridEdges(2, 3, g)
	want := "o--o--o\n|  |  |\no--o--o\n"
	if out != want {
		t.Errorf("got:\n%q\nwant:\n%q", out, want)
	}
}

func TestGridEdgesPartial(t *testing.T) {
	b := graph.NewBuilder(4) // 2x2 grid vertices, only top edge
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	h := b.Build()
	out := GridEdges(2, 2, h)
	want := "o--o\n    \no  o\n"
	if out != want {
		t.Errorf("got:\n%q\nwant:\n%q", out, want)
	}
}

func TestLegendNonEmpty(t *testing.T) {
	if Legend() == "" {
		t.Error("empty legend")
	}
}

func TestStepTable(t *testing.T) {
	steps := []protocols.StepMetrics{
		{Phase: 0, Step: protocols.StepNearNeighbors, Rounds: 10, Messages: 100, MaxRoundTraffic: 20},
		{Phase: 0, Step: protocols.StepInterconnect, Rounds: 5, Messages: 30, MaxRoundTraffic: 9},
		{Phase: 1, Step: protocols.StepNearNeighbors, Rounds: 7, Messages: 40, MaxRoundTraffic: 8},
	}
	out := StepTable(steps)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 3 steps + 2 phase totals + grand total
	if len(lines) != 7 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"phase", "near-neighbors", "interconnect", "phase total", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Phase 0 subtotal: 15 rounds, 130 messages; grand total 22 / 170.
	if !strings.Contains(lines[3], "15") || !strings.Contains(lines[3], "130") {
		t.Errorf("phase 0 total row wrong: %q", lines[3])
	}
	if !strings.Contains(lines[6], "22") || !strings.Contains(lines[6], "170") {
		t.Errorf("grand total row wrong: %q", lines[6])
	}
}

func TestStepTableEmpty(t *testing.T) {
	out := StepTable(nil)
	if !strings.Contains(out, "total") {
		t.Errorf("empty table missing total row: %q", out)
	}
}

func TestManyClustersCycleLetters(t *testing.T) {
	out := GridClusters(5, 6, cluster.Singletons(30))
	if !strings.Contains(out, "A") || !strings.Contains(out, "Z") {
		t.Errorf("letter cycling broken:\n%s", out)
	}
}
