package congest

import (
	"context"
	"errors"
	"math"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/sched"
)

// Private runtimes whose worker counts differ from the default, for the
// tests that check the shard fan-out never changes the execution. Their
// workers start on first dispatch and live as long as the test binary.
var rt3, rt5, rt7 = sched.New(3), sched.New(5), sched.New(7)

// schedule is one way to run the same execution, for the tests that
// check the output does not depend on how rounds are scheduled. cutoff
// is the fan-out cutoff forced for the run; -1 keeps the default rule.
type schedule struct {
	opts   Options
	cutoff int
}

// schedules are named for how a round's vertices run: "sequential" runs
// every round inline as one shard on the calling goroutine, "parallel"
// applies the default fan-out rule (every round of these small test
// graphs stays inline), and "parallel-w5" and "parallel-dispatch"
// dispatch every round to runtimes of 5 and 3 workers.
func schedules() map[string]schedule {
	return map[string]schedule{
		"sequential":        {cutoff: math.MaxInt},
		"parallel":          {cutoff: -1},
		"parallel-w5":       {opts: Options{Runtime: rt5}, cutoff: 0},
		"parallel-dispatch": {opts: Options{Runtime: rt3}, cutoff: 0},
	}
}

// force applies the schedule's cutoff and returns the function that
// restores the default.
func (sc schedule) force() (restore func()) {
	if sc.cutoff < 0 {
		return func() {}
	}
	return SetInlineWorkCutoff(sc.cutoff)
}

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

func (f *floodProg) Round(env *Env) {
	for range env.Recv() { // one arrival is enough: stop the range early
		if f.dist < 0 {
			f.dist = env.Round()
			_ = env.Broadcast(Message{Kind: kindToken})
		}
		break
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
	if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
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

func (p *idExchangeProg) Round(env *Env) {
	for port, m := range env.Recv() {
		p.received++
		if int(m.Words[0]) != env.NeighborID(port) {
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
	if err := sim.RunContext(context.Background(), 1); err != nil {
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
func (p *overSender) Round(env *Env) { env.Halt() }

func TestBandwidthViolation(t *testing.T) {
	g := gen.Path(2)
	sim, err := NewUniform(g, func(v int) Program { return &overSender{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.RunContext(context.Background(), 1)
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

// badPortSender sends on a port beyond its degree.
type badPortSender struct{}

func (p *badPortSender) Init(env *Env) {
	_ = env.Send(env.Degree(), Message{})
}
func (p *badPortSender) Round(env *Env) { env.Halt() }

func TestInvalidPort(t *testing.T) {
	g := gen.Path(3)
	sim, err := NewUniform(g, func(v int) Program { return &badPortSender{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 1); !errors.Is(err, ErrPort) {
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
// good for schedule-equivalence testing.
type gossipProg struct {
	maxSeen int64
	horizon int
	history []int64
}

func (p *gossipProg) Init(env *Env) {
	p.maxSeen = int64(env.ID())
	_ = env.Broadcast(Message{Kind: 4, Words: [MessageWords]int64{p.maxSeen}})
}

func (p *gossipProg) Round(env *Env) {
	for _, m := range env.Recv() {
		if m.Words[0] > p.maxSeen {
			p.maxSeen = m.Words[0]
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
	if err := sim.RunContext(context.Background(), horizon+1); err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = sim.Program(v).(*gossipProg).history
	}
	return out, sim.Metrics()
}

// TestEnginesProduceIdenticalExecutions checks every pair of schedules
// for bit-identical per-round histories and metrics, on workloads with
// nontrivial traffic. Rounds also fan out to a runtime whose worker
// count is far above GOMAXPROCS: determinism must not depend on how
// shards map onto hardware.
func TestEnginesProduceIdenticalExecutions(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":  gen.Grid(5, 8),
		"gnp":   gen.GNP(60, 0.08, 11, true),
		"torus": gen.Torus(6, 6),
	}
	scheds := schedules()
	scheds["parallel-w7"] = schedule{opts: Options{Runtime: rt7}, cutoff: 0}
	for name, g := range graphs {
		type run struct {
			label string
			hist  [][]int64
			m     Metrics
		}
		var runs []run
		for label, sc := range scheds {
			func() {
				defer sc.force()()
				hist, m := runGossip(t, g, sc.opts, 12)
				runs = append(runs, run{label, hist, m})
			}()
		}
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
	if _, err := sim.RunUntilQuietContext(context.Background(), 100); err != nil {
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

// A flood computes the same distances with every round inline and with
// every round dispatched.
func TestConcurrentEnginesOnFlood(t *testing.T) {
	g := gen.GNP(50, 0.1, 3, true)
	_, inline := runFlood(t, g, 7, Options{})
	defer SetInlineWorkCutoff(0)()
	_, d := runFlood(t, g, 7, Options{})
	for v := range inline {
		if inline[v] != d[v] {
			t.Errorf("vertex %d: inline dist %d, dispatched dist %d", v, inline[v], d[v])
		}
	}
}

func TestRecvSortedByPort(t *testing.T) {
	g := gen.Star(6)
	sim, err := NewUniform(g, func(v int) Program { return &portOrderProg{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 1); err != nil {
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

func (p *portOrderProg) Round(env *Env) {
	p.sorted, p.count = true, 0
	last := -1
	for port := range env.Recv() {
		if port < last {
			p.sorted = false
		}
		last = port
		p.count++
	}
	env.Halt()
}

func TestDeliveryOrderDescending(t *testing.T) {
	g := gen.Star(6)
	sim, err := congestNewDescending(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 1); err != nil {
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

// panicProg panics at round 2 on one vertex; the simulator must re-raise
// the panic on the coordinating goroutine (not deadlock or swallow it),
// whether the round ran inline or fanned out.
type panicProg struct{ boom bool }

func (p *panicProg) Init(env *Env) { _ = env.Broadcast(Message{Kind: 9}) }
func (p *panicProg) Round(env *Env) {
	if p.boom && env.Round() == 2 {
		panic("intentional test panic")
	}
	_ = env.Broadcast(Message{Kind: 9})
}

func TestConcurrentEnginesRepropagatePanic(t *testing.T) {
	for name, sc := range schedules() {
		t.Run(name, func(t *testing.T) {
			defer sc.force()()
			g := gen.Path(4)
			sim, err := NewUniform(g, func(v int) Program { return &panicProg{boom: v == 2} }, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != "vertex 2: intentional test panic" {
					t.Errorf("recovered %v, want vertex 2's panic", r)
				}
			}()
			_ = sim.RunContext(context.Background(), 5)
		})
	}
}

// roundOverSender wakes every vertex in round 1 (via the Init
// broadcast) and then over-sends on port 0 — so the violations happen
// inside a round, which may run as concurrent shards, not in Init (which
// always runs on the coordinator).
type roundOverSender struct{}

func (p *roundOverSender) Init(env *Env) { _ = env.Broadcast(Message{Kind: 3}) }
func (p *roundOverSender) Round(env *Env) {
	if env.Round() == 1 && env.Degree() > 0 {
		_ = env.Send(0, Message{Kind: 3})
		_ = env.Send(0, Message{Kind: 3})
	}
	env.Halt()
}

// The reported model violation must be identical on every schedule: the
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
		for _, label := range []string{"sequential", "parallel-w5", "parallel-dispatch"} {
			sc := schedules()[label]
			restore := sc.force()
			g := gen.GNP(60, 0.1, 13, true)
			sim, err := NewUniform(g, factory, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = sim.RunContext(context.Background(), 2)
			restore()
			if !errors.Is(err, ErrBandwidth) {
				t.Fatalf("%s/%s: Run error = %v, want ErrBandwidth", name, label, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s/%s: violation %q, sequential reported %q", name, label, err, want)
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
