// Roadgrid: run the construction as an actual distributed protocol and
// account for CONGEST rounds.
//
// The workload is a torus "road network": every intersection is a
// processor that can only talk to adjacent intersections, one O(1)-word
// message per road per round. The example runs the full protocol stack
// on the simulator twice — the sequential round loop and the shared
// sharded runtime — and shows both engines produce the identical spanner
// with the identical round count.
// It then sweeps a parameter grid with BuildBatch: the sweep's builds
// run concurrently on one bounded worker pool.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nearspan"
)

func main() {
	roads := nearspan.Torus(20, 20)
	fmt.Printf("road grid: %d intersections, %d segments, diameter %d\n",
		roads.N(), roads.M(), roads.Diameter())

	for _, engine := range []nearspan.Engine{
		nearspan.EngineSequential,
		nearspan.EngineParallel,
	} {
		start := time.Now()
		res, err := nearspan.BuildSpanner(roads, nearspan.Config{
			Eps: 0.5, Kappa: 4, Rho: 0.45,
			Mode:   nearspan.DistributedMode,
			Engine: engine,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s engine: %d edges, %d CONGEST rounds, %d messages (wall clock %v)\n",
			engine, res.EdgeCount(), res.TotalRounds, res.Messages,
			time.Since(start).Round(time.Millisecond))
		for _, ph := range res.Phases {
			fmt.Printf("  phase %d: deg=%d delta=%d rounds: NN=%d RS=%d SC=%d IC=%d\n",
				ph.Index, ph.Deg, ph.Delta, ph.RoundsNN, ph.RoundsRS, ph.RoundsSC, ph.RoundsIC)
		}
	}

	// Parameter sweep on the shared batch runtime: every (eps, kappa)
	// candidate builds concurrently on one bounded worker pool, and each
	// outcome is bit-identical to building it alone.
	var jobs []nearspan.BuildJob
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		for _, kappa := range []int{3, 4} {
			jobs = append(jobs, nearspan.BuildJob{
				Name:  fmt.Sprintf("eps=%.2f kappa=%d", eps, kappa),
				Graph: roads,
				Config: nearspan.Config{
					Eps: eps, Kappa: kappa, Rho: 0.45,
					Mode: nearspan.DistributedMode, Engine: nearspan.EngineParallel,
				},
			})
		}
	}
	start := time.Now()
	outs, err := nearspan.BuildBatch(context.Background(), jobs, nearspan.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parameter sweep: %d concurrent distributed builds in %v\n",
		len(jobs), time.Since(start).Round(time.Millisecond))
	for i, out := range outs {
		if out.Err != nil {
			log.Fatal(out.Err)
		}
		fmt.Printf("  %-20s %d edges, %d rounds, guarantee (1+%.2f)d + %d\n",
			jobs[i].Name, out.Result.EdgeCount(), out.Result.TotalRounds,
			out.Result.Params.EpsPrime(), out.Result.Params.BetaInt())
	}

	// On a sparse bounded-degree graph the spanner keeps everything —
	// the construction's size bound exceeds m, and that is the correct
	// outcome: sparse graphs are their own best spanners.
	res, err := nearspan.BuildSpanner(roads, nearspan.Config{Eps: 0.5, Kappa: 4, Rho: 0.45})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("torus keeps %d/%d segments: sparse inputs are their own spanners\n",
		res.EdgeCount(), roads.M())
}
