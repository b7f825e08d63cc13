package congest

import (
	"errors"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// floodProg broadcasts a token from a source; every vertex forwards it the
// round after first hearing it, then halts. dist records the round of
// first receipt, which equals graph distance from the source.
type floodProg struct {
	src  bool
	dist int
}

const kindToken = 1

func (f *floodProg) Init(env *Env) {
	if f.src {
		f.dist = 0
		_ = env.Broadcast(Message{Kind: kindToken})
	} else {
		f.dist = -1
	}
	env.Halt()
}

func (f *floodProg) Round(env *Env, recv []Inbound) {
	if f.dist < 0 && len(recv) > 0 {
		f.dist = env.Round()
		_ = env.Broadcast(Message{Kind: kindToken})
	}
	env.Halt()
}

func newFlood(src int) func(v int) Program {
	return func(v int) Program { return &floodProg{src: v == src} }
}

func runFlood(t *testing.T, g *graph.Graph, src int, opts Options) (*Simulator, []int) {
	t.Helper()
	sim, err := NewUniform(g, newFlood(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunUntilQuiet(10 * g.N()); err != nil {
		t.Fatal(err)
	}
	dists := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		dists[v] = sim.Program(v).(*floodProg).dist
	}
	return sim, dists
}

func TestFloodComputesBFSDistances(t *testing.T) {
	g := gen.Grid(6, 7)
	_, dists := runFlood(t, g, 0, Options{})
	want := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if int32(dists[v]) != want[v] {
			t.Errorf("vertex %d: flood dist %d, BFS dist %d", v, dists[v], want[v])
		}
	}
}

func TestFloodQuiescesAtEccentricity(t *testing.T) {
	g := gen.Path(15)
	sim, _ := runFlood(t, g, 0, Options{})
	// Last receipt at round 14; it forwards in round 14 (delivered 15);
	// round 15 processes and halts; quiescence check then stops.
	if got := sim.Round(); got < 14 || got > 16 {
		t.Errorf("flood on path took %d rounds, want ~15", got)
	}
}

// idExchangeProg sends this vertex's ID on every port and verifies that
// the arrival ports match the simulator's NeighborID map — this pins the
// twin-slot (reverse edge) wiring.
type idExchangeProg struct {
	ok       bool
	received int
}

func (p *idExchangeProg) Init(env *Env) {
	p.ok = true
	_ = env.Broadcast(Message{Kind: 2, Words: [MessageWords]int64{int64(env.ID())}})
}

func (p *idExchangeProg) Round(env *Env, recv []Inbound) {
	for _, in := range recv {
		p.received++
		if int(in.Msg.Words[0]) != env.NeighborID(in.Port) {
			p.ok = false
		}
	}
	env.Halt()
}

func TestPortWiring(t *testing.T) {
	g := gen.GNP(40, 0.15, 5, true)
	sim, err := NewUniform(g, func(v int) Program { return &idExchangeProg{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		p := sim.Program(v).(*idExchangeProg)
		if !p.ok {
			t.Errorf("vertex %d: ID arrived on wrong port", v)
		}
		if p.received != g.Degree(v) {
			t.Errorf("vertex %d: received %d messages, degree %d", v, p.received, g.Degree(v))
		}
	}
}

// overSender violates bandwidth by sending two messages on port 0.
type overSender struct{ errs []error }

func (p *overSender) Init(env *Env) {
	if env.Degree() > 0 {
		p.errs = append(p.errs, env.Send(0, Message{Kind: 3}))
		p.errs = append(p.errs, env.Send(0, Message{Kind: 3}))
	}
}
func (p *overSender) Round(env *Env, recv []Inbound) { env.Halt() }

func TestBandwidthViolation(t *testing.T) {
	g := gen.Path(2)
	sim, err := NewUniform(g, func(v int) Program { return &overSender{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(1)
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("Run error = %v, want ErrBandwidth", err)
	}
	p := sim.Program(0).(*overSender)
	if p.errs[0] != nil {
		t.Error("first send should succeed")
	}
	if !errors.Is(p.errs[1], ErrBandwidth) {
		t.Error("second send should report ErrBandwidth to the sender")
	}
}

func TestBandwidthOptionAllowsMore(t *testing.T) {
	g := gen.Path(2)
	sim, err := NewUniform(g, func(v int) Program { return &overSender{} }, Options{Bandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatalf("bandwidth-2 run failed: %v", err)
	}
}

// badPortSender sends on a port beyond its degree.
type badPortSender struct{}

func (p *badPortSender) Init(env *Env) {
	_ = env.Send(env.Degree(), Message{})
}
func (p *badPortSender) Round(env *Env, recv []Inbound) { env.Halt() }

func TestInvalidPort(t *testing.T) {
	g := gen.Path(3)
	sim, err := NewUniform(g, func(v int) Program { return &badPortSender{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); !errors.Is(err, ErrPort) {
		t.Fatalf("Run error = %v, want ErrPort", err)
	}
}

func TestProgramCountMismatch(t *testing.T) {
	g := gen.Path(3)
	if _, err := New(g, make([]Program, 2), Options{}); err == nil {
		t.Error("mismatched program count accepted")
	}
}

// gossipProg exercises heavier traffic: each vertex relays the max ID it
// has seen every round for a fixed horizon. Deterministic and stateful,
// good for engine-equivalence testing.
type gossipProg struct {
	maxSeen int64
	horizon int
	history []int64
}

func (p *gossipProg) Init(env *Env) {
	p.maxSeen = int64(env.ID())
	_ = env.Broadcast(Message{Kind: 4, Words: [MessageWords]int64{p.maxSeen}})
}

func (p *gossipProg) Round(env *Env, recv []Inbound) {
	for _, in := range recv {
		if in.Msg.Words[0] > p.maxSeen {
			p.maxSeen = in.Msg.Words[0]
		}
	}
	p.history = append(p.history, p.maxSeen)
	if env.Round() < p.horizon {
		_ = env.Broadcast(Message{Kind: 4, Words: [MessageWords]int64{p.maxSeen}})
	}
}

func runGossip(t *testing.T, g *graph.Graph, opts Options, horizon int) ([][]int64, Metrics) {
	t.Helper()
	sim, err := NewUniform(g, func(v int) Program { return &gossipProg{horizon: horizon} }, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(horizon + 1); err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = sim.Program(v).(*gossipProg).history
	}
	return out, sim.Metrics()
}

// TestEnginesProduceIdenticalExecutions checks all engine pairs for
// bit-identical per-round histories and metrics, on workloads with
// nontrivial traffic. The parallel engine additionally runs with a
// worker count far above GOMAXPROCS: determinism must not depend on how
// shards map onto hardware.
func TestEnginesProduceIdenticalExecutions(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":  gen.Grid(5, 8),
		"gnp":   gen.GNP(60, 0.08, 11, true),
		"torus": gen.Torus(6, 6),
	}
	engines := map[string]Options{
		"sequential":  {Engine: EngineSequential},
		"parallel":    {Engine: EngineParallel},
		"parallel-w7": {Engine: EngineParallel, Workers: 7},
	}
	for name, g := range graphs {
		type run struct {
			label string
			hist  [][]int64
			m     Metrics
		}
		var runs []run
		for label, opts := range engines {
			hist, m := runGossip(t, g, opts, 12)
			runs = append(runs, run{label, hist, m})
		}
		// The parallel engine has two execution paths — inline for small
		// frontiers, runtime dispatch above the cutoff. These graphs are
		// all below the default cutoff, so force the dispatch path too.
		func() {
			defer func(c int) { inlineFrontierCutoff = c }(inlineFrontierCutoff)
			inlineFrontierCutoff = 0
			hist, m := runGossip(t, g, Options{Engine: EngineParallel}, 12)
			runs = append(runs, run{"parallel-dispatch", hist, m})
		}()
		for i := 0; i < len(runs); i++ {
			for j := i + 1; j < len(runs); j++ {
				a, b := runs[i], runs[j]
				if a.m != b.m {
					t.Errorf("%s: metrics differ: %s=%+v %s=%+v", name, a.label, a.m, b.label, b.m)
				}
				for v := range a.hist {
					if len(a.hist[v]) != len(b.hist[v]) {
						t.Fatalf("%s vertex %d: history lengths differ (%s vs %s)",
							name, v, a.label, b.label)
					}
					for r := range a.hist[v] {
						if a.hist[v][r] != b.hist[v][r] {
							t.Errorf("%s vertex %d round %d: %s=%d %s=%d",
								name, v, r, a.label, a.hist[v][r], b.label, b.hist[v][r])
						}
					}
				}
			}
		}
	}
}

func TestGossipConverges(t *testing.T) {
	g := gen.Grid(4, 4)
	horizon := int(g.Diameter()) + 1
	hist, _ := runGossip(t, g, Options{}, horizon)
	for v := range hist {
		final := hist[v][len(hist[v])-1]
		if final != int64(g.N()-1) {
			t.Errorf("vertex %d: max-ID gossip converged to %d, want %d", v, final, g.N()-1)
		}
	}
}

func TestMetricsCountMessages(t *testing.T) {
	g := gen.Path(4) // edges: 3, directed slots: 6
	sim, err := NewUniform(g, newFlood(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	// Each vertex broadcasts exactly once: total messages = sum of degrees = 2m = 6.
	if m.Messages != 6 {
		t.Errorf("Messages=%d, want 6", m.Messages)
	}
	if m.MaxRoundTraffic < 1 || m.MaxRoundTraffic > 3 {
		t.Errorf("MaxRoundTraffic=%d out of expected range", m.MaxRoundTraffic)
	}
}

func TestConcurrentEnginesOnFlood(t *testing.T) {
	g := gen.GNP(50, 0.1, 3, true)
	_, seqD := runFlood(t, g, 7, Options{Engine: EngineSequential})
	_, d := runFlood(t, g, 7, Options{Engine: EngineParallel})
	for v := range seqD {
		if seqD[v] != d[v] {
			t.Errorf("vertex %d: seq dist %d, parallel dist %d", v, seqD[v], d[v])
		}
	}
}

func TestRecvSortedByPort(t *testing.T) {
	g := gen.Star(6)
	sim, err := NewUniform(g, func(v int) Program { return &portOrderProg{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	hub := sim.Program(0).(*portOrderProg)
	if !hub.sorted {
		t.Error("hub received messages out of port order")
	}
	if hub.count != 5 {
		t.Errorf("hub received %d messages, want 5", hub.count)
	}
}

type portOrderProg struct {
	sorted bool
	count  int
}

func (p *portOrderProg) Init(env *Env) {
	_ = env.Broadcast(Message{Kind: 5})
}

func (p *portOrderProg) Round(env *Env, recv []Inbound) {
	p.sorted = true
	for i := 1; i < len(recv); i++ {
		if recv[i].Port < recv[i-1].Port {
			p.sorted = false
		}
	}
	p.count = len(recv)
	env.Halt()
}

func TestEngineString(t *testing.T) {
	if EngineSequential.String() != "sequential" || EngineParallel.String() != "parallel" {
		t.Error("Engine.String broken")
	}
	if Engine(99).String() != "Engine(99)" {
		t.Error("unknown engine string broken")
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEngine("quantum"); err == nil {
		t.Error("unknown engine name accepted")
	}
}

func TestDeliveryOrderDescending(t *testing.T) {
	g := gen.Star(6)
	sim, err := congestNewDescending(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	hub := sim.Program(0).(*portOrderProg)
	if hub.sorted {
		t.Error("descending delivery should present reverse port order")
	}
	if hub.count != 5 {
		t.Errorf("hub received %d messages, want 5", hub.count)
	}
}

func congestNewDescending(g *graph.Graph) (*Simulator, error) {
	return NewUniform(g, func(v int) Program { return &portOrderProg{} },
		Options{Delivery: DeliverPortDescending})
}

// Flood (a correct, order-independent protocol) must compute identical
// results under adversarial delivery order.
func TestFloodOrderIndependent(t *testing.T) {
	g := gen.GNP(60, 0.08, 19, true)
	_, asc := runFlood(t, g, 3, Options{})
	_, desc := runFlood(t, g, 3, Options{Delivery: DeliverPortDescending})
	for v := range asc {
		if asc[v] != desc[v] {
			t.Errorf("vertex %d: delivery order changed the result: %d vs %d", v, asc[v], desc[v])
		}
	}
}

// panicProg panics at round 2 on one vertex; the parallel engine must
// re-raise the panic on the coordinating goroutine (not deadlock or
// swallow it).
type panicProg struct{ boom bool }

func (p *panicProg) Init(env *Env) { _ = env.Broadcast(Message{Kind: 9}) }
func (p *panicProg) Round(env *Env, recv []Inbound) {
	if p.boom && env.Round() == 2 {
		panic("intentional test panic")
	}
	_ = env.Broadcast(Message{Kind: 9})
}

func TestConcurrentEnginesRepropagatePanic(t *testing.T) {
	for _, eng := range []Engine{EngineParallel} {
		t.Run(eng.String(), func(t *testing.T) {
			g := gen.Path(4)
			sim, err := NewUniform(g, func(v int) Program { return &panicProg{boom: v == 2} },
				Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Error("panic in a vertex program was swallowed")
				}
			}()
			_ = sim.Run(5)
		})
	}
}

// roundOverSender wakes every vertex in round 1 (via the Init
// broadcast) and then over-sends on port 0 — so the violations happen
// inside the engines' concurrent round execution, not in Init (which
// always runs on the coordinator).
type roundOverSender struct{}

func (p *roundOverSender) Init(env *Env) { _ = env.Broadcast(Message{Kind: 3}) }
func (p *roundOverSender) Round(env *Env, recv []Inbound) {
	if env.Round() == 1 && env.Degree() > 0 {
		_ = env.Send(0, Message{Kind: 3})
		_ = env.Send(0, Message{Kind: 3})
	}
	env.Halt()
}

// The reported model violation must be identical on every engine: the
// lowest-(round, vertex) violation wins, not whichever worker's write
// races in first. Covered for both places a program can violate —
// during Init (coordinator) and during a concurrently executed round,
// where many vertices violate at once across shards/goroutines.
func TestViolationDeterministicAcrossEngines(t *testing.T) {
	progs := map[string]func(v int) Program{
		"init-violation":  func(v int) Program { return &overSender{} },
		"round-violation": func(v int) Program { return &roundOverSender{} },
	}
	for name, factory := range progs {
		var want string
		for _, opts := range []Options{
			{Engine: EngineSequential},
			{Engine: EngineParallel},
			{Engine: EngineParallel, Workers: 5},
		} {
			g := gen.GNP(60, 0.1, 13, true)
			sim, err := NewUniform(g, factory, opts)
			if err != nil {
				t.Fatal(err)
			}
			err = sim.Run(2)
			if !errors.Is(err, ErrBandwidth) {
				t.Fatalf("%s/%s: Run error = %v, want ErrBandwidth", name, opts.Engine, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s/%s: violation %q, sequential reported %q", name, opts.Engine, err, want)
			}
		}
	}
}

func TestHaltedVertexWakesOnMessage(t *testing.T) {
	// Vertex 2 on a path halts immediately; the flood must still wake it.
	g := gen.Path(5)
	_, dists := runFlood(t, g, 0, Options{})
	if dists[4] != 4 {
		t.Errorf("halted vertices not woken: dist[4]=%d", dists[4])
	}
}
