package core

import (
	"context"

	"nearspan/internal/congest"
	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

// distributedBackend executes each protocol step as a session on one
// persistent CONGEST network: the simulator (message arenas, twin
// table, shard layout) is constructed exactly once per Build and reused
// — via congest.Reset — across all phases and steps, with every round
// executing on the shared runtime. Round counts are measured;
// fixed-schedule protocols run for exactly their schedule (all vertices
// know the schedule, §1.3.1), and path climbs run to quiescence. A step
// statically known to move no messages skips the simulation and records
// an idle step: the schedule still spends its rounds.
type distributedBackend struct {
	g    *graph.Graph
	nEst int // the vertex-count estimate known to the vertices
	net  *protocols.Network
	led  *protocols.Ledger
}

func newDistributedBackend(g *graph.Graph, nEst int, opts congest.Options, led *protocols.Ledger) (*distributedBackend, error) {
	net, err := protocols.NewNetwork(g, opts, led)
	if err != nil {
		return nil, err
	}
	return &distributedBackend{g: g, nEst: nEst, net: net, led: led}, nil
}

func (d *distributedBackend) arenaBytes() int64 { return d.net.Sim().ArenaBytes() }

func (d *distributedBackend) arenaWorstCase() int64 { return d.net.Sim().ArenaBytesWorstCase() }

func (d *distributedBackend) nearNeighbors(ctx context.Context, centers []int, deg int, delta int32, rec *protocols.TranscriptRecorder) (protocols.NNResult, error) {
	// The schedule always consumes its rounds (vertices cannot detect
	// global emptiness), but with no centers not a single message flows,
	// so the simulation itself can be skipped.
	if len(centers) == 0 {
		err := d.led.Record(protocols.StepMetrics{Step: protocols.StepNearNeighbors, Rounds: protocols.NearNeighborsRounds(deg, delta)})
		return protocols.EmptyNNResult(d.g.N()), err
	}
	isC := membership(d.g.N(), centers)
	return protocols.RunNearNeighborsRec(ctx, d.net, func(v int) bool { return isC[v] }, deg, delta, rec)
}

func (d *distributedBackend) rulingSet(ctx context.Context, members []int, q int32, c int) ([]int, error) {
	if len(members) == 0 {
		return nil, d.led.Record(protocols.StepMetrics{Step: protocols.StepRulingSet, Rounds: protocols.RulingSetRounds(q, c, d.nEst)})
	}
	isM := membership(d.g.N(), members)
	return protocols.RunRulingSet(ctx, d.net, func(v int) bool { return isM[v] }, q, c, d.nEst)
}

func (d *distributedBackend) forest(ctx context.Context, roots []int, depth int32) (protocols.ForestResult, error) {
	if len(roots) == 0 {
		n := d.g.N()
		res := protocols.ForestResult{
			Dist:       make([]int32, n),
			Root:       make([]int64, n),
			ParentPort: make([]int, n),
		}
		for v := 0; v < n; v++ {
			res.Dist[v] = -1
			res.Root[v] = -1
			res.ParentPort[v] = -1
		}
		return res, d.led.Record(protocols.StepMetrics{Step: protocols.StepForest, Rounds: protocols.ForestRounds(depth)})
	}
	isR := membership(d.g.N(), roots)
	return protocols.RunForest(ctx, d.net, func(v int) bool { return isR[v] }, depth)
}

func (d *distributedBackend) climb(ctx context.Context, step string, rt *protocols.Routing, start [][]int64, keysPerVertex, pathLen int, h *graph.Builder) (int, error) {
	for _, s := range start {
		if len(s) > 0 {
			return protocols.RunClimb(ctx, d.net, step, rt, start, keysPerVertex, pathLen, h)
		}
	}
	return 0, d.led.Record(protocols.StepMetrics{Step: step})
}

func membership(n int, xs []int) []bool {
	m := make([]bool, n)
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// centralBackend computes the same outputs with the centralized
// oracles: identical deterministic decisions, no rounds. Each step
// records its schedule rounds (parameter functions, equal to the
// distributed measurements) once its output is computed; climbs record
// zero rounds, and no step moves messages. Cancellation is observed
// between steps (the per-step oracles are fast and atomic).
type centralBackend struct {
	g    *graph.Graph
	nEst int
	led  *protocols.Ledger
}

func (c *centralBackend) arenaBytes() int64 { return 0 }

func (c *centralBackend) arenaWorstCase() int64 { return 0 }

func (c *centralBackend) record(step string, rounds int) error {
	return c.led.Record(protocols.StepMetrics{Step: step, Rounds: rounds})
}

func (c *centralBackend) nearNeighbors(ctx context.Context, centers []int, deg int, delta int32, rec *protocols.TranscriptRecorder) (protocols.NNResult, error) {
	if err := ctx.Err(); err != nil {
		return protocols.NNResult{}, err
	}
	nn, _ := protocols.CentralNearNeighborsRec(c.g, centers, deg, delta, rec)
	return nn, c.record(protocols.StepNearNeighbors, protocols.NearNeighborsRounds(deg, delta))
}

func (c *centralBackend) rulingSet(ctx context.Context, members []int, q int32, cc int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rs := protocols.CentralRulingSet(c.g, members, q, cc, c.nEst)
	return rs, c.record(protocols.StepRulingSet, protocols.RulingSetRounds(q, cc, c.nEst))
}

func (c *centralBackend) forest(ctx context.Context, roots []int, depth int32) (protocols.ForestResult, error) {
	if err := ctx.Err(); err != nil {
		return protocols.ForestResult{}, err
	}
	n := c.g.N()
	res := protocols.ForestResult{
		Dist:       make([]int32, n),
		Root:       make([]int64, n),
		ParentPort: make([]int, n),
	}
	dist, root, parent := c.g.MultiBFS(roots, depth)
	for v := 0; v < n; v++ {
		if dist[v] == graph.Infinity {
			res.Dist[v] = -1
			res.Root[v] = -1
			res.ParentPort[v] = -1
			continue
		}
		res.Dist[v] = dist[v]
		res.Root[v] = int64(root[v])
		if parent[v] >= 0 {
			res.ParentPort[v] = c.g.PortOf(v, int(parent[v]))
		} else {
			res.ParentPort[v] = -1
		}
	}
	return res, c.record(protocols.StepForest, protocols.ForestRounds(depth))
}

// climb walks the pointer chains directly; the forwarded bitset —
// parallel to the routing entries, exactly as in the distributed Climb
// program — reproduces the protocol's forward-once-per-key dedupe, so
// the marked edge set is identical. The new-edge count is taken against
// h itself, matching the distributed extraction.
func (c *centralBackend) climb(ctx context.Context, step string, rt *protocols.Routing, start [][]int64, keysPerVertex, pathLen int, h *graph.Builder) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	added := 0
	forwarded := rt.NewMarks() // one flag per (vertex, key) routing entry
	for v := range start {
		for _, k := range start[v] {
			cur := v
			for int64(cur) != k {
				idx, ok := rt.Index(cur, k)
				if !ok {
					break // no pointer: trace terminates here
				}
				if forwarded[idx] {
					break // this vertex already forwarded k
				}
				forwarded[idx] = true
				next := c.g.Neighbor(cur, int(rt.PortAt(idx)))
				if h.Add(cur, next) {
					added++
				}
				cur = next
			}
		}
	}
	return added, c.record(step, 0)
}
