package protocols

import (
	"slices"

	"nearspan/internal/congest"
	"nearspan/internal/graph"
)

// Climb traces paths through per-vertex routing pointers and records the
// edges traversed; the recorded edges are what the spanner construction
// adds to H.
//
// Each trace is identified by a key. A vertex that participates in a
// trace for key k looks up its outgoing port in the routing run and
// forwards the trace exactly once per key, ever — traces for the same
// key from different initiators merge, which both bounds congestion and
// keeps the added edge set minimal (the pointers for one key form a tree
// directed toward the key's target, so one forwarding per vertex marks
// the whole root path).
//
// Two modes cover the paper's uses:
//
//   - Superclustering (Fig. 4): keys are root IDs and the routing holds
//     BFS-forest parent ports; spanned cluster centers initiate, and the
//     forest path from each spanned center to its root lands in H.
//   - Interconnection (Fig. 5): keys are cluster-center IDs and the
//     routing holds the ports recorded by Algorithm 1; an unpopular
//     center initiates one trace per nearby center, and a shortest path
//     to each lands in H.
//
// Per round, a vertex sends at most one queued trace per port, so the
// protocol respects bandwidth 1. It is message-driven: run with
// RunUntilQuiet.
type Climb struct {
	// Keys and Ports are the vertex's routing run (Routing.At): for key
	// Keys[i], the trace forwards over port Ports[i]. Keys absent from
	// the run terminate the trace at this vertex (roots in forest mode).
	Keys  []int64
	Ports []int32
	// Start lists keys whose traces this vertex initiates, sorted
	// ascending (the deterministic initiation order; an unsorted slice is
	// cloned and sorted defensively).
	Start []int64

	// MarkedPorts lists the ports whose edges this vertex added to H.
	MarkedPorts []int32

	// forwarded (parallel to Keys: forwarded this key already) and
	// queues (one per port) are allocated on the first accepted key, so
	// a vertex that never carries a trace allocates neither.
	forwarded []bool
	queues    [][]int64
}

var _ congest.Program = (*Climb)(nil)

// NewClimb returns a factory over the routing plane and per-vertex start
// sets. start[v] may be nil for non-initiators; non-nil slices must be
// sorted ascending (NNResult runs and single-key forest starts are).
func NewClimb(rt *Routing, start [][]int64) func(v int) congest.Program {
	return func(v int) congest.Program {
		keys, ports := rt.At(v)
		return &Climb{Keys: keys, Ports: ports, Start: start[v]}
	}
}

// ClimbMaxRounds bounds the rounds a Climb can take: every vertex
// forwards at most keysPerVertex traces, each over a path of at most
// pathLen hops, and per-port queuing delays each hop by at most
// keysPerVertex rounds.
func ClimbMaxRounds(keysPerVertex, pathLen int) int {
	return (keysPerVertex+1)*(pathLen+1) + 2
}

// Init implements congest.Program.
func (c *Climb) Init(env *congest.Env) {
	keys := c.Start
	if !slices.IsSorted(keys) {
		keys = slices.Clone(keys)
		slices.Sort(keys)
	}
	for _, k := range keys {
		c.accept(env, k)
	}
	c.pump(env)
}

// Round implements congest.Program.
func (c *Climb) Round(env *congest.Env) {
	for _, m := range env.Recv() {
		if m.Kind != kindClimb {
			continue
		}
		c.accept(env, m.Words[0])
	}
	c.pump(env)
}

// accept handles participation in the trace for key k: mark the outgoing
// edge and enqueue the forward, once per key. Keys the vertex has no
// pointer for (or that target the vertex itself) terminate here; they
// need no dedupe because repeats have no effect.
func (c *Climb) accept(env *congest.Env, k int64) {
	if int64(env.ID()) == k {
		return // reached the target
	}
	i, ok := slices.BinarySearch(c.Keys, k)
	if !ok {
		return // root / no pointer: trace terminates here
	}
	if c.queues == nil {
		c.forwarded = make([]bool, len(c.Keys))
		c.queues = make([][]int64, env.Degree())
	}
	if c.forwarded[i] {
		return
	}
	c.forwarded[i] = true
	port := c.Ports[i]
	c.MarkedPorts = append(c.MarkedPorts, port)
	c.queues[port] = append(c.queues[port], k)
}

// pump sends one queued trace per port, then halts if nothing is pending
// (at once when the vertex has accepted no key and queues is nil).
func (c *Climb) pump(env *congest.Env) {
	pending := false
	for p := range c.queues {
		if len(c.queues[p]) == 0 {
			continue
		}
		k := c.queues[p][0]
		c.queues[p] = c.queues[p][1:]
		_ = env.Send(p, congest.Message{Kind: kindClimb, Words: [congest.MessageWords]int64{k}})
		if len(c.queues[p]) > 0 {
			pending = true
		}
	}
	if !pending {
		env.Halt()
	}
}

// ExtractClimbEdges adds the union of marked edges from a finished Climb
// simulation into the given set, returning how many were new to it. The
// construction passes the spanner accumulator H directly, so climb
// results land in the spanner without an intermediate edge map.
func ExtractClimbEdges(sim *congest.Simulator, into *graph.Builder) int {
	g := sim.Graph()
	added := 0
	for v := 0; v < g.N(); v++ {
		p := sim.Program(v).(*Climb)
		for _, port := range p.MarkedPorts {
			if into.Add(v, g.Neighbor(v, int(port))) {
				added++
			}
		}
	}
	return added
}
