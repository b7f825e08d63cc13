package core

import (
	"context"

	"nearspan/internal/congest"
	"nearspan/internal/edgeset"
	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

// distributedBackend executes each protocol step as a session on one
// persistent CONGEST network: the simulator (message arenas, twin
// table, shard layout) is constructed exactly once per Build and reused
// — via congest.Reset — across all phases and steps, with every round
// executing on the shared runtime. Round counts are measured;
// fixed-schedule protocols run for exactly their budget (all vertices
// know the schedule, §1.3.1), and path climbs run to quiescence.
type distributedBackend struct {
	g     *graph.Graph
	nEst  int // the vertex-count estimate known to the vertices
	net   *protocols.Network
	phase int
}

func newDistributedBackend(g *graph.Graph, nEst int, opts congest.Options) (*distributedBackend, error) {
	net, err := protocols.NewNetwork(g, opts)
	if err != nil {
		return nil, err
	}
	return &distributedBackend{g: g, nEst: nEst, net: net}, nil
}

func (d *distributedBackend) beginPhase(i int) { d.phase = i }

func (d *distributedBackend) steps() []protocols.StepMetrics { return d.net.Steps() }

func (d *distributedBackend) arenaBytes() int64 { return d.net.Sim().ArenaBytes() }

func (d *distributedBackend) arenaWorstCase() int64 { return d.net.Sim().ArenaBytesWorstCase() }

func (d *distributedBackend) messages() int64 {
	var total int64
	for _, s := range d.net.Steps() {
		total += s.Messages
	}
	return total
}

func (d *distributedBackend) nearNeighbors(ctx context.Context, centers []int, deg int, delta int32, rec *protocols.TranscriptRecorder) (protocols.NNResult, int, error) {
	// The schedule always consumes its budget (vertices cannot detect
	// global emptiness), but with no centers not a single message flows,
	// so the simulation itself can be skipped.
	rounds := protocols.NearNeighborsRounds(deg, delta)
	if len(centers) == 0 {
		d.net.RecordIdle(d.phase, protocols.StepNearNeighbors, rounds)
		return protocols.EmptyNNResult(d.g.N()), rounds, nil
	}
	isC := membership(d.g.N(), centers)
	return protocols.RunNearNeighborsRec(ctx, d.net, d.phase, func(v int) bool { return isC[v] }, deg, delta, rec)
}

func (d *distributedBackend) recordReplayed(step string, rounds int) error {
	return d.net.RecordReplayed(d.phase, step, rounds)
}

func (d *distributedBackend) rulingSet(ctx context.Context, members []int, q int32, c int) ([]int, int, error) {
	rounds := protocols.RulingSetRounds(q, c, d.nEst)
	if len(members) == 0 {
		d.net.RecordIdle(d.phase, protocols.StepRulingSet, rounds)
		return nil, rounds, nil
	}
	isM := membership(d.g.N(), members)
	return protocols.RunRulingSet(ctx, d.net, d.phase, func(v int) bool { return isM[v] }, q, c, d.nEst)
}

func (d *distributedBackend) forest(ctx context.Context, roots []int, depth int32) (protocols.ForestResult, int, error) {
	rounds := protocols.ForestRounds(depth)
	if len(roots) == 0 {
		n := d.g.N()
		d.net.RecordIdle(d.phase, protocols.StepForest, rounds)
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
		return res, rounds, nil
	}
	isR := membership(d.g.N(), roots)
	return protocols.RunForest(ctx, d.net, d.phase, func(v int) bool { return isR[v] }, depth)
}

func (d *distributedBackend) climb(ctx context.Context, step string, rt *protocols.Routing, start [][]int64, keysPerVertex, pathLen int, h *edgeset.Set) (int, int, error) {
	any := false
	for _, s := range start {
		if len(s) > 0 {
			any = true
			break
		}
	}
	if !any {
		d.net.RecordIdle(d.phase, step, 0)
		return 0, 0, nil
	}
	return protocols.RunClimb(ctx, d.net, d.phase, step, rt, start, keysPerVertex, pathLen, h)
}

func membership(n int, xs []int) []bool {
	m := make([]bool, n)
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// centralBackend computes the same outputs with the centralized
// oracles: identical deterministic decisions, no rounds. Fixed-schedule
// round budgets are still reported and recorded as step metrics (they
// are parameter functions, equal to the distributed measurements);
// climbs report zero rounds, and no step moves messages. Cancellation
// is observed between steps (the per-step oracles are fast and atomic).
type centralBackend struct {
	g      *graph.Graph
	nEst   int
	phase  int
	rec    []protocols.StepMetrics
	onStep func(protocols.StepMetrics)

	// budget, when positive, bounds the cumulative recorded step rounds
	// — the centralized rendering of Options.RoundBudget. There is no
	// simulator, so an exhausted budget carries no message histogram.
	budget int
	used   int
}

func (c *centralBackend) beginPhase(i int) { c.phase = i }

func (c *centralBackend) steps() []protocols.StepMetrics { return c.rec }

func (c *centralBackend) arenaBytes() int64 { return 0 }

func (c *centralBackend) arenaWorstCase() int64 { return 0 }

func (c *centralBackend) record(step string, rounds int) error {
	return c.recordMetric(protocols.StepMetrics{Phase: c.phase, Step: step, Rounds: rounds})
}

// recordReplayed records a delta-rebuild spliced step: schedule rounds
// charged (a rebuilt job fits the same round cap as a full build), no
// protocol ran.
func (c *centralBackend) recordReplayed(step string, rounds int) error {
	return c.recordMetric(protocols.StepMetrics{Phase: c.phase, Step: step, Rounds: rounds, Replayed: true})
}

func (c *centralBackend) recordMetric(sm protocols.StepMetrics) error {
	c.rec = append(c.rec, sm)
	if c.onStep != nil {
		c.onStep(sm)
	}
	c.used += sm.Rounds
	if c.budget > 0 && c.used > c.budget {
		return &congest.ErrBudgetExhausted{MaxRounds: c.budget}
	}
	return nil
}

func (c *centralBackend) messages() int64 { return 0 }

func (c *centralBackend) nearNeighbors(ctx context.Context, centers []int, deg int, delta int32, rec *protocols.TranscriptRecorder) (protocols.NNResult, int, error) {
	if err := ctx.Err(); err != nil {
		return protocols.NNResult{}, 0, err
	}
	rounds := protocols.NearNeighborsRounds(deg, delta)
	if err := c.record(protocols.StepNearNeighbors, rounds); err != nil {
		return protocols.NNResult{}, rounds, err
	}
	nn, _ := protocols.CentralNearNeighborsRec(c.g, centers, deg, delta, rec)
	return nn, rounds, nil
}

func (c *centralBackend) rulingSet(ctx context.Context, members []int, q int32, cc int) ([]int, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	rounds := protocols.RulingSetRounds(q, cc, c.nEst)
	if err := c.record(protocols.StepRulingSet, rounds); err != nil {
		return nil, rounds, err
	}
	return protocols.CentralRulingSet(c.g, members, q, cc, c.nEst), rounds, nil
}

func (c *centralBackend) forest(ctx context.Context, roots []int, depth int32) (protocols.ForestResult, int, error) {
	if err := ctx.Err(); err != nil {
		return protocols.ForestResult{}, 0, err
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
	rounds := protocols.ForestRounds(depth)
	if err := c.record(protocols.StepForest, rounds); err != nil {
		return protocols.ForestResult{}, rounds, err
	}
	return res, rounds, nil
}

// climb walks the pointer chains directly; the forwarded bitset —
// parallel to the routing entries, exactly as in the distributed Climb
// program — reproduces the protocol's forward-once-per-key dedupe, so
// the marked edge set is identical. The new-edge count is taken against
// h itself, matching the distributed extraction.
func (c *centralBackend) climb(ctx context.Context, step string, rt *protocols.Routing, start [][]int64, keysPerVertex, pathLen int, h *edgeset.Set) (int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
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
	if err := c.record(step, 0); err != nil {
		return added, 0, err
	}
	return added, 0, nil
}
