package nearspan_test

import (
	"context"
	"testing"

	"nearspan"
	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
)

// Alloc-regression guards: pin allocation budgets for the columnar data
// plane's hot operations so a future change that quietly reintroduces
// per-edge boxing or map churn fails CI (the non-race job; the race
// detector changes allocation counts, so the guards skip under it).
// Budgets are ~1.5x the measured values — tight enough to catch a
// regression to the map plane (an order of magnitude above), loose
// enough to survive runtime version noise.

// Builder.Add averages well under one allocation per edge (bucket growth
// by append; run merges reuse one scratch buffer).
func TestAllocBudgetSetAdd(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	stream := assemblyWorkload(5000, 40_000)
	avg := testing.AllocsPerRun(10, func() {
		b := graph.NewBuilder(5000)
		for _, e := range stream {
			b.Add(int(e[0]), int(e[1]))
		}
	})
	perAdd := avg / float64(len(stream))
	if perAdd > 0.6 {
		t.Errorf("Builder.Add allocates %.3f allocs/edge (budget 0.6) — %v allocs for %d edges",
			perAdd, avg, len(stream))
	}
}

// Builder.Build emits the CSR in a constant number of allocations once
// the buckets are compacted: degrees, offsets, adjacency, and the
// iterator plumbing — independent of edge count.
func TestAllocBudgetSetGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	b := graph.NewBuilder(5000)
	for _, e := range assemblyWorkload(5000, 40_000) {
		b.Add(int(e[0]), int(e[1]))
	}
	b.Build() // compact once; steady-state emission is what we pin
	avg := testing.AllocsPerRun(20, func() {
		b.Build()
	})
	if avg > 12 {
		t.Errorf("Builder.Build allocates %v per emission (budget 12)", avg)
	}
}

// The centralized build inner loop (phases over Algorithm 1, merges,
// climbs, assembly) stays within a fixed budget on a reference workload.
// The map-plane implementation sat several times higher.
func TestAllocBudgetCentralizedBuild(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	g := gen.GNP(256, 16.0/256, 256, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := core.Build(context.Background(), g, p, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 30_000
	if avg > budget {
		t.Errorf("centralized Build allocates %v per run (budget %d)", avg, budget)
	}
}

// The distributed build (Algorithm 1 on the simulator, then the
// protocol sessions of every later step) stays within a fixed budget on
// the same reference workload. Algorithm 1 keeps its
// per-vertex state in flat reused slices (NNState) and measures 10,296
// allocations per build. With a map per vertex for its known centers
// and Via pointers plus a fresh map per phase for its hearings, the
// same build allocated 20,720 times, well over the budget.
func TestAllocBudgetDistributedBuild(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	g := gen.GNP(256, 16.0/256, 256, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := core.Build(context.Background(), g, p, core.Options{Mode: core.ModeDistributed}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 15_000
	if avg > budget {
		t.Errorf("distributed Build allocates %v per run (budget %d)", avg, budget)
	}
}

// A climb allocates trace state only at the vertices a trace reaches.
// Four vertices of a 4,096-vertex GNP start traces toward a BFS root;
// the run costs one allocation per vertex (its Climb program) plus the
// traced paths and the simulator. Allocating every vertex's forwarded
// flags and port queues in Init, traced or not, cost three per vertex.
func TestAllocBudgetSparseClimb(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	const n = 4096
	g := gen.GNP(n, 8.0/(n-1), 3, true)
	_, _, parent := g.MultiBFS([]int{0}, n)
	parentPort := make([]int, n)
	for v := range parentPort {
		parentPort[v] = -1
		if parent[v] >= 0 {
			parentPort[v] = g.PortOf(v, int(parent[v]))
		}
	}
	const key = 0
	rt := protocols.NewForestRouting(parentPort, key)
	start := make([][]int64, n)
	for _, v := range []int{1000, 2000, 3000, 4095} {
		start[v] = []int64{key}
	}
	var sim *congest.Simulator
	avg := testing.AllocsPerRun(5, func() {
		var err error
		sim, err = congest.NewUniform(g, protocols.NewClimb(rt, start), congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuietContext(context.Background(), protocols.ClimbMaxRounds(1, n)); err != nil {
			t.Fatal(err)
		}
	})
	if sim.Metrics().Messages < 4 {
		t.Fatalf("the climb sent %d messages — weak test setup", sim.Metrics().Messages)
	}
	if perVertex := avg / n; perVertex > 1.5 {
		t.Errorf("a 4-trace climb allocates %.2f allocs/vertex (budget 1.5) — %v total for n=%d",
			perVertex, avg, n)
	}
}

// Streaming generation emits a million-edge GNP in O(1) allocations per
// vertex: the one pair sweep appends each edge's larger endpoint to a
// single presized buffer, and the CSR is cut in a single allocation per
// column. A regression to per-vertex buffering (a Builder bucket per
// vertex) sits two orders of magnitude above this budget.
func TestAllocBudgetStreamGNP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	if testing.Short() {
		t.Skip("million-edge generation is not a -short workload")
	}
	const n = 8192
	p := 2 * 1_000_000 / (float64(n) * float64(n-1))
	avg := testing.AllocsPerRun(3, func() {
		g := nearspan.StreamGNP(n, p, 7, true).Graph()
		if g.M() < 900_000 {
			t.Fatalf("stream produced %d edges, want ~1e6", g.M())
		}
	})
	perVertex := avg / n
	if perVertex > 1 {
		t.Errorf("StreamGNP+Graph allocates %.4f allocs/vertex (budget 1) — %v total for n=%d",
			perVertex, avg, n)
	}
}

// A warm point query on the oracle pool is allocation-free: cached
// sources answer with an atomic load plus an array read, and cache
// misses run the bidirectional BFS entirely in the replica's
// preallocated stamped workspace. Budget 2 covers incidental runtime
// noise; the pre-pool oracle sat far above it (map lookups, per-query
// level slices).
func TestAllocBudgetOracleWarmPointQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	g := gen.GNP(600, 0.02, 9, true)
	pool := nearspan.NewOraclePool(g, nearspan.OraclePoolOptions{Replicas: 1, CacheSources: 4})
	pool.Sources(0)     // warm the cache slot for source 0
	pool.Dist(100, 200) // warm the replica's bidi workspace

	hit := testing.AllocsPerRun(200, func() { pool.Dist(0, 599) })
	if hit > 0 {
		t.Errorf("warm cached point query allocates %v per query (budget 0)", hit)
	}
	miss := testing.AllocsPerRun(200, func() { pool.Dist(100, 599) })
	if miss > 2 {
		t.Errorf("warm bidi point query allocates %v per query (budget 2)", miss)
	}
}
