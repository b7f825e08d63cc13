package nearspan_test

import (
	"context"
	"fmt"

	"nearspan"
)

// ExampleBuildSpanner mirrors the package quick start: build a
// (1+ε', β)-spanner of a grid and report how much of the graph was kept.
// The construction is deterministic, so the output is exact.
func ExampleBuildSpanner() {
	g := nearspan.Grid(32, 32)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 0.5, Kappa: 4, Rho: 0.45,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.EdgeCount(), "of", g.M(), "edges kept")
	// Output:
	// 1984 of 1984 edges kept
}

// ExampleBuildSpanner_distributed runs the same construction as an
// actual CONGEST protocol on the simulator and reports the measured
// round count — the paper's "running time". The simulator's scheduling
// never changes the spanner or the round count.
func ExampleBuildSpanner_distributed() {
	g := nearspan.GNP(300, 0.05, 41, true)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
		Mode: nearspan.DistributedMode,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("sparsified:", res.EdgeCount() < g.M())
	fmt.Println("rounds measured:", res.TotalRounds > 0)
	// Output:
	// sparsified: true
	// rounds measured: true
}

// ExampleBuildBatch builds spanners for several workloads concurrently
// on one shared execution runtime: the builds multiplex onto a single
// bounded worker pool instead of stacking one pool per build, and the
// outcomes are bit-identical to building each graph alone. Cancellation
// (context deadline or SIGINT plumbing) aborts in-flight builds at a
// simulated round boundary.
func ExampleBuildBatch() {
	cfg := nearspan.Config{
		Eps: 0.5, Kappa: 4, Rho: 0.45,
		Mode: nearspan.DistributedMode,
	}
	jobs := []nearspan.BuildJob{
		{Name: "grid", Graph: nearspan.Grid(16, 16), Config: cfg},
		{Name: "torus", Graph: nearspan.Torus(12, 12), Config: cfg},
		{Name: "hypercube", Graph: nearspan.Hypercube(7), Config: cfg},
	}
	outs, err := nearspan.BuildBatch(context.Background(), jobs, nearspan.BatchOptions{})
	if err != nil {
		panic(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			panic(out.Err)
		}
		fmt.Printf("%s: %d of %d edges, %d rounds\n",
			jobs[i].Name, out.Result.EdgeCount(), jobs[i].Graph.M(), out.Result.TotalRounds)
	}
	// Output:
	// grid: 283 of 480 edges, 4082 rounds
	// torus: 147 of 288 edges, 3320 rounds
	// hypercube: 130 of 448 edges, 3099 rounds
}

// ExampleVerifyStretch checks the spanner's (1+ε', β) guarantee exactly,
// over all connected vertex pairs.
func ExampleVerifyStretch() {
	g := nearspan.GNP(200, 0.06, 7, true)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
	})
	if err != nil {
		panic(err)
	}
	alpha, beta := res.Params.Guarantee()
	rep := nearspan.VerifyStretch(g, res.Spanner, alpha, beta)
	fmt.Println("stretch ok:", rep.OK())
	fmt.Println("subgraph:", nearspan.IsSubgraph(res.Spanner, g))
	// Output:
	// stretch ok: true
	// subgraph: true
}

// ExampleNewOraclePool puts an approximate distance oracle over a built
// spanner: queries traverse the sparse spanner instead of the graph, and
// every answer carries the spanner's (1+ε', β) guarantee.
func ExampleNewOraclePool() {
	g := nearspan.Torus(16, 16)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{
		Eps: 0.5, Kappa: 4, Rho: 0.45,
	})
	if err != nil {
		panic(err)
	}
	o := nearspan.NewOraclePool(res.Spanner, nearspan.OraclePoolOptions{})
	alpha, beta := res.Params.Guarantee()
	exact := g.Distance(0, 136)
	approx := o.Dist(0, 136)
	fmt.Println("exact:", exact)
	fmt.Println("approx within guarantee:", approx >= exact &&
		float64(approx) <= alpha*float64(exact)+float64(beta))
	// Output:
	// exact: 16
	// approx within guarantee: true
}
