// Quickstart: build a near-additive spanner of a random graph, inspect
// the parameter schedule, and verify the stretch guarantee.
package main

import (
	"fmt"
	"log"

	"nearspan"
)

func main() {
	// A dense-ish random graph: 400 vertices, ~4000 edges.
	g := nearspan.GNP(400, 0.05, 7, true)
	fmt.Printf("input graph: n=%d m=%d\n", g.N(), g.M())

	// Inspect the schedule before building: kappa controls size, rho the
	// round budget, eps the distance scale.
	p, err := nearspan.NewParams(1.0/3, 3, 0.49, g.N())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %d phases, deg=%v delta=%v beta=%d\n",
		p.L+1, p.Deg, p.Delta, p.BetaInt())

	// Build (centralized reference mode — identical output to the
	// distributed mode, see the roadgrid example for round counting).
	res, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spanner: kept %d of %d edges (%.1f%%)\n",
		res.EdgeCount(), g.M(), 100*float64(res.EdgeCount())/float64(g.M()))

	// Verify the paper's guarantee d_H <= (1+eps')*d_G + beta over all
	// vertex pairs.
	alpha, beta := res.Params.Guarantee()
	rep := nearspan.VerifyStretch(g, res.Spanner, alpha, beta)
	fmt.Printf("guarantee (1+%.2f)d+%d holds: %v\n", alpha-1, beta, rep.OK())
	fmt.Printf("measured: worst additive error %d, worst ratio %.2f, mean ratio %.3f\n",
		rep.WorstAdditive, rep.WorstRatio, rep.MeanRatio)
}
