package congest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// This file pins the frontier-driven stepper to the dense CONGEST
// semantics with randomized programs: every vertex decides each round —
// via a pure function of (seed, vertex, round, received messages) — which
// ports to send on, whether to halt, and (in violent mode) whether to
// break the model. The same decision function drives both a congest
// Program and denseRef, an independent dense stepper written directly
// from the model definition (probe every port, visit every vertex, wake
// on mail or alarm). Identical per-vertex transcripts, metrics, quiescence
// rounds, and violation reports across all schedules and the reference
// mean the O(activity) machinery is observationally invisible.

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fzSend is one decided send; port may be invalid or duplicated in
// violent mode. A broadcast send ignores port and goes out on every
// incident edge — on the Simulator side via Env.Broadcast, so the sweep
// exercises the compact broadcast store, the violation of a unicast that
// follows it on a port it already took, and the per-port fallback when
// a unicast precedes it.
type fzSend struct {
	port      int
	kind      uint8
	word      int64
	broadcast bool
}

// fzDecision is what a vertex does in one round: its sends, then a
// SleepUntil for each entry of sleeps (a later one replaces an earlier
// one), then a Halt if halt is set.
type fzDecision struct {
	sends  []fzSend
	sleeps []int
	halt   bool
}

// fzConfig shapes the random behavior.
type fzConfig struct {
	seed    uint64
	violent bool // emit invalid-port / over-bandwidth sends
	mixed   bool // mix unicasts before/after broadcasts (a bandwidth violation)
	horizon int  // if > 0: no sends and forced halt from this round on (guarantees quiescence)
	// awake lets no vertex halt and makes most sends of even rounds
	// broadcasts, so rounds alternate between dense ones with every
	// vertex awake — the rounds on which buildFrontier skips its wake
	// walk — and sparse ones with every vertex awake, which must not.
	awake bool
	// sleeper, when positive, names vertex sleeper-1 as the one vertex
	// that still halts every round it runs, so an awake run's dense
	// rounds must find the mail that wakes it.
	sleeper int
	// sleepy makes vertices set alarms. In an awake run a third of the
	// vertices sleep until the next odd round, the rounds that deliver
	// the even rounds' broadcasts, so those dense rounds find every
	// halted vertex woken by its alarm. Otherwise half the halting
	// vertices sleep instead, until anywhere from the previous round
	// (which the simulator moves to the next one) to five rounds on,
	// some with a second alarm that replaces the first and some with a
	// Halt after it that keeps it.
	sleepy bool
}

// fzBehavior is the shared pure decision function. round 0 is Init
// (recvHash 0). Sends are a random subset of ports in ascending order
// (each a distinct port, so the one-message budget is respected), plus —
// in violent mode, rarely — a duplicate or out-of-range send.
func fzBehavior(cfg fzConfig, v, round int, recvHash uint64, deg int) fzDecision {
	r := splitmix(cfg.seed ^ splitmix(uint64(v)+1) ^ splitmix(uint64(round)+0x5151) ^ recvHash)
	var d fzDecision
	if cfg.horizon > 0 && round >= cfg.horizon {
		d.halt = true
		return d
	}
	send := round == 0 || r%8 != 0 // Init always kickstarts; later rounds mostly send
	if send {
		mask := splitmix(r)
		w := splitmix(mask)
		// ~1/5 of sending rounds broadcast instead of unicasting; ~4/5 in
		// the even rounds of an awake run, which makes them dense.
		if (mask%5 == 0) != (cfg.awake && round%2 == 0) {
			w = splitmix(w)
			if cfg.mixed && deg > 0 && (mask>>3)&3 == 0 {
				// A unicast first forces Broadcast down the per-port path.
				d.sends = append(d.sends, fzSend{port: int(mask>>7) % deg, kind: 3, word: int64(w % 512)})
			}
			d.sends = append(d.sends, fzSend{broadcast: true, kind: 1 + uint8(w%3), word: int64(w % 1024)})
			if cfg.mixed && deg > 0 && (mask>>5)&3 == 0 {
				// A unicast after finds its port taken by the compact broadcast.
				d.sends = append(d.sends, fzSend{port: int(mask>>9) % deg, kind: 2, word: int64(w % 256)})
			}
		} else {
			for p := 0; p < deg && p < 32; p++ {
				if mask>>(2*p)&3 == 0 { // ~1/4 of ports
					w = splitmix(w)
					d.sends = append(d.sends, fzSend{port: p, kind: 1 + uint8(w%3), word: int64(w % 1024)})
				}
			}
		}
	}
	if cfg.violent && deg > 0 {
		switch x := splitmix(r + 7); x % 97 {
		case 0: // invalid port
			d.sends = append(d.sends, fzSend{port: deg, kind: 1})
		case 1: // duplicate port: a bandwidth violation
			d.sends = append(d.sends, fzSend{port: int(x>>8) % deg, kind: 1, word: 7})
		}
	}
	d.halt = (r>>9)&1 == 0
	switch {
	case cfg.awake && cfg.sleepy && v%3 == 0:
		d.sleeps = append(d.sleeps, round+1+round%2)
		d.halt = false
	case cfg.awake:
		d.halt = v == cfg.sleeper-1
	case cfg.sleepy && d.halt && (r>>10)&1 == 0:
		d.sleeps = append(d.sleeps, round-1+int(r>>11)%7)
		if (r>>14)&3 == 0 {
			d.sleeps = append(d.sleeps, round+int(r>>16)%5)
		}
		d.halt = (r>>18)&1 == 0
	}
	return d
}

// fzHashSeed and fzFold build the order-sensitive hash of a round's
// deliveries that both sides feed back into fzBehavior: each delivered
// (port, message) is folded in as it is read.
const fzHashSeed = 0x811C9DC5

func fzFold(h uint64, port int, m Message) uint64 {
	return splitmix(h ^ uint64(port)<<40 ^ uint64(m.Kind)<<32 ^ uint64(m.Words[0]))
}

// fzProg is the congest-side face of fzBehavior. gathers counts the
// rounds it ran in by how buildFrontier prepared them (the gather
// modes), and alarmAwake the gatherAwake rounds in which alarms woke
// vertices.
type fzProg struct {
	cfg        fzConfig
	transcript uint64
	invoked    int

	gathers    [3]int
	alarmAwake int
}

func (p *fzProg) Init(env *Env) {
	p.apply(env, fzBehavior(p.cfg, env.ID(), 0, 0, env.Degree()))
}

func (p *fzProg) Round(env *Env) {
	h := uint64(fzHashSeed)
	for port, m := range env.Recv() {
		h = fzFold(h, port, m)
	}
	p.transcript = splitmix(p.transcript ^ h ^ uint64(env.Round()))
	p.invoked++
	p.gathers[env.sim.gather]++
	if env.sim.gather == gatherAwake && len(env.sim.woken) > 0 {
		p.alarmAwake++
	}
	p.apply(env, fzBehavior(p.cfg, env.ID(), env.Round(), h, env.Degree()))
}

func (p *fzProg) apply(env *Env, d fzDecision) {
	for _, snd := range d.sends {
		m := Message{Kind: snd.kind, Words: [MessageWords]int64{snd.word}}
		if snd.broadcast {
			_ = env.Broadcast(m)
		} else {
			_ = env.Send(snd.port, m)
		}
	}
	for _, r := range d.sleeps {
		env.SleepUntil(r)
	}
	if d.halt {
		env.Halt()
	}
}

// denseRef is the reference stepper: a from-scratch dense implementation
// of the synchronous model — per-vertex per-port inboxes, every port
// probed in delivery order, every vertex visited every round, wake on
// mail or on the round its alarm names — sharing no code with the
// Simulator.
type denseRef struct {
	g        *graph.Graph
	cfg      fzConfig
	delivery DeliveryOrder

	cur, next  [][][]Message // [vertex][port] -> delivered messages
	sentOnPort []bool        // ports the sending vertex has used this round
	halted     []bool
	alarm      []int // round a sleeping vertex wakes at; 0: none
	transcript []uint64
	invoked    []int

	round    int
	messages int64
	maxRound int64

	hasViol              bool
	violRound, violVert  int
	violBandwidth        bool // else invalid port
	violPort, violDegree int
}

func newDenseRef(g *graph.Graph, cfg fzConfig, delivery DeliveryOrder) *denseRef {
	r := &denseRef{g: g, cfg: cfg, delivery: delivery,
		halted:     make([]bool, g.N()),
		alarm:      make([]int, g.N()),
		transcript: make([]uint64, g.N()),
		invoked:    make([]int, g.N()),
	}
	r.cur = make([][][]Message, g.N())
	r.next = make([][][]Message, g.N())
	for v := 0; v < g.N(); v++ {
		r.cur[v] = make([][]Message, g.Degree(v))
		r.next[v] = make([][]Message, g.Degree(v))
	}
	return r
}

// noteViolation keeps the lowest (round, vertex) violation.
func (r *denseRef) noteViolation(v int, bandwidth bool, port int) {
	if r.hasViol && (r.violRound < r.round || (r.violRound == r.round && r.violVert <= v)) {
		return
	}
	r.hasViol = true
	r.violRound, r.violVert = r.round, v
	r.violBandwidth = bandwidth
	r.violPort, r.violDegree = port, r.g.Degree(v)
}

func (r *denseRef) apply(v int, d fzDecision) {
	deg := r.g.Degree(v)
	r.sentOnPort = r.sentOnPort[:0]
	for p := 0; p < deg; p++ {
		r.sentOnPort = append(r.sentOnPort, false)
	}
	for _, snd := range d.sends {
		if snd.broadcast {
			// Broadcast is per-port expansion that stops at the first
			// violating port, exactly as Env.Broadcast does.
			for p := 0; p < deg; p++ {
				if r.sentOnPort[p] {
					r.noteViolation(v, true, p)
					break
				}
				r.sentOnPort[p] = true
				w := r.g.Neighbor(v, p)
				q := r.g.PortOf(w, v)
				r.next[w][q] = append(r.next[w][q],
					Message{Kind: snd.kind, Words: [MessageWords]int64{snd.word}})
				r.messages++
			}
			continue
		}
		if snd.port < 0 || snd.port >= deg {
			r.noteViolation(v, false, snd.port)
			continue
		}
		if r.sentOnPort[snd.port] {
			r.noteViolation(v, true, snd.port)
			continue
		}
		r.sentOnPort[snd.port] = true
		w := r.g.Neighbor(v, snd.port)
		q := r.g.PortOf(w, v)
		r.next[w][q] = append(r.next[w][q],
			Message{Kind: snd.kind, Words: [MessageWords]int64{snd.word}})
		r.messages++
	}
	for _, at := range d.sleeps {
		r.halted[v] = true
		r.alarm[v] = at
		if at <= r.round {
			r.alarm[v] = r.round + 1
		}
	}
	if d.halt {
		r.halted[v] = true
	}
}

func (r *denseRef) flip() {
	var sent int64
	for v := range r.next {
		for p := range r.next[v] {
			sent += int64(len(r.next[v][p]))
		}
	}
	if sent > r.maxRound {
		r.maxRound = sent
	}
	r.cur, r.next = r.next, r.cur
	for v := range r.next {
		for p := range r.next[v] {
			r.next[v][p] = r.next[v][p][:0]
		}
	}
}

func (r *denseRef) init() {
	for v := 0; v < r.g.N(); v++ {
		r.apply(v, fzBehavior(r.cfg, v, 0, 0, r.g.Degree(v)))
	}
	r.flip()
}

// receive probes every port of v in delivery order and folds its
// messages into the delivery hash; got reports whether any arrived.
func (r *denseRef) receive(v int) (h uint64, got bool) {
	h = fzHashSeed
	deg := r.g.Degree(v)
	for i := 0; i < deg; i++ {
		p := i
		if r.delivery == DeliverPortDescending {
			p = deg - 1 - i
		}
		for _, m := range r.cur[v][p] {
			h = fzFold(h, p, m)
			got = true
		}
	}
	return h, got
}

func (r *denseRef) step() {
	r.round++
	for v := 0; v < r.g.N(); v++ {
		h, got := r.receive(v)
		if got || r.alarm[v] == r.round {
			r.halted[v] = false
			r.alarm[v] = 0
		}
		if r.halted[v] {
			continue
		}
		r.transcript[v] = splitmix(r.transcript[v] ^ h ^ uint64(r.round))
		r.invoked[v]++
		r.apply(v, fzBehavior(r.cfg, v, r.round, h, r.g.Degree(v)))
	}
	r.flip()
}

func (r *denseRef) quiet() bool {
	for v := range r.cur {
		for p := range r.cur[v] {
			if len(r.cur[v][p]) > 0 {
				return false
			}
		}
	}
	for v, h := range r.halted {
		if !h || r.alarm[v] != 0 {
			return false
		}
	}
	return true
}

// run mirrors Simulator.RunContext: Init, then up to maxRounds rounds,
// stopping at the end of the round in which the first violation occurred
// (an Init violation still executes round 1, as RunContext does).
// Returns executed rounds.
func (r *denseRef) run(maxRounds int) int {
	r.init()
	for i := 0; i < maxRounds; i++ {
		r.step()
		if r.hasViol && r.violRound <= r.round {
			break
		}
	}
	return r.round
}

// runUntilQuiet mirrors Simulator.RunUntilQuietContext.
func (r *denseRef) runUntilQuiet(maxRounds int) int {
	r.init()
	for i := 0; i < maxRounds; i++ {
		if r.quiet() {
			break
		}
		r.step()
		if r.hasViol && r.violRound <= r.round {
			break
		}
	}
	return r.round
}

// wantViolation reproduces the exact violation error string the
// Simulator reports, so reference and simulator can be compared verbatim.
func (r *denseRef) wantViolation() string {
	if !r.hasViol {
		return ""
	}
	if r.violBandwidth {
		return fmt.Sprintf("%v: vertex %d port %d round %d",
			ErrBandwidth, r.violVert, r.violPort, r.violRound)
	}
	return fmt.Sprintf("%v: vertex %d port %d (degree %d)",
		ErrPort, r.violVert, r.violPort, r.violDegree)
}

// fzGraphs are the comparison topologies: a hub (port fan-in), a path
// (long quiet tails), a grid, and a random graph.
func fzGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"star":  gen.Star(9),
		"path":  gen.Path(17),
		"grid":  gen.Grid(6, 7),
		"gnp":   gen.GNP(48, 0.12, 5, true),
		"torus": gen.Torus(5, 5),
	}
}

// compareRun executes the fuzz program on one schedule and checks every
// observable against the dense reference. It returns the simulator, for
// inspecting the programs, and whether the reference saw a violation.
func compareRun(t *testing.T, g *graph.Graph, cfg fzConfig, sc schedule, label string,
	untilQuiet bool, maxRounds int) (sim *Simulator, violated bool) {
	t.Helper()
	opts := sc.opts
	defer sc.force()()
	ref := newDenseRef(g, cfg, opts.Delivery)
	var wantRounds int
	if untilQuiet {
		wantRounds = ref.runUntilQuiet(maxRounds)
	} else {
		wantRounds = ref.run(maxRounds)
	}

	sim, err := NewUniform(g, func(v int) Program { return &fzProg{cfg: cfg} }, opts)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	if untilQuiet {
		_, runErr = sim.RunUntilQuietContext(context.Background(), maxRounds)
	} else {
		runErr = sim.RunContext(context.Background(), maxRounds)
	}

	if want := ref.wantViolation(); want != "" {
		if runErr == nil || runErr.Error() != want {
			t.Errorf("%s: violation = %v, reference %q", label, runErr, want)
		}
	} else if runErr != nil {
		var be *ErrBudgetExhausted
		if !untilQuiet || !errors.As(runErr, &be) {
			t.Errorf("%s: unexpected error %v", label, runErr)
		}
	}
	if got := sim.Round(); got != wantRounds {
		t.Errorf("%s: executed %d rounds, reference %d", label, got, wantRounds)
	}
	m := sim.Metrics()
	if m.Messages != ref.messages || m.MaxRoundTraffic != ref.maxRound || m.Rounds != ref.round {
		t.Errorf("%s: metrics %+v, reference {Rounds:%d Messages:%d MaxRoundTraffic:%d}",
			label, m, ref.round, ref.messages, ref.maxRound)
	}
	for v := 0; v < g.N(); v++ {
		p := sim.Program(v).(*fzProg)
		if p.invoked != ref.invoked[v] {
			t.Errorf("%s vertex %d: invoked %d rounds, reference %d", label, v, p.invoked, ref.invoked[v])
		}
		if p.transcript != ref.transcript[v] {
			t.Errorf("%s vertex %d: transcript %x, reference %x", label, v, p.transcript, ref.transcript[v])
		}
	}
	return sim, ref.hasViol
}

// gatherCounts sums the programs' gather-mode counters and alarmAwake
// counts (see fzProg).
func gatherCounts(sim *Simulator) (gathers [3]int, alarmAwake int) {
	for v := 0; v < sim.Graph().N(); v++ {
		p := sim.Program(v).(*fzProg)
		for i, c := range p.gathers {
			gathers[i] += c
		}
		alarmAwake += p.alarmAwake
	}
	return gathers, alarmAwake
}

// TestFrontierMatchesDenseReference is the property test: randomized
// Halt/SleepUntil/wake/send programs produce identical executions on the
// frontier stepper (every schedule) and the dense reference.
func TestFrontierMatchesDenseReference(t *testing.T) {
	for gname, g := range fzGraphs() {
		for sname, sc := range schedules() {
			for seed := uint64(1); seed <= 5; seed++ {
				for _, sleepy := range []bool{false, true} {
					cfg := fzConfig{seed: seed, sleepy: sleepy}
					label := fmt.Sprintf("%s/%s/seed%d/sleepy=%t", gname, sname, seed, sleepy)
					compareRun(t, g, cfg, sc, label, false, 12)
				}
			}
		}
	}
}

// TestFrontierMatchesDenseReferenceViolent checks that model violations
// from random rounds — the one place concurrent shards race — are reported
// with the identical canonical error, and that the run stops at the
// reference round.
func TestFrontierMatchesDenseReferenceViolent(t *testing.T) {
	violations := 0
	for gname, g := range fzGraphs() {
		for sname, sc := range schedules() {
			for seed := uint64(1); seed <= 6; seed++ {
				cfg := fzConfig{seed: seed, violent: true}
				label := fmt.Sprintf("%s/%s/seed%d", gname, sname, seed)
				if _, violated := compareRun(t, g, cfg, sc, label, false, 10); violated {
					violations++
				}
			}
		}
	}
	// The sweep must actually exercise the violation path, or the
	// canonical-error comparison above is vacuous.
	if violations == 0 {
		t.Error("no violent seed produced a model violation — widen the sweep")
	}
}

// TestFrontierQuiescenceMatchesDenseReference winds the traffic down at
// a horizon and checks RunUntilQuietContext agrees with the reference on
// the exact quiescence round — the O(1) quiet() against the dense scan.
func TestFrontierQuiescenceMatchesDenseReference(t *testing.T) {
	for gname, g := range fzGraphs() {
		for sname, sc := range schedules() {
			for seed := uint64(1); seed <= 8; seed++ {
				cfg := fzConfig{seed: seed, horizon: 7, sleepy: seed > 4}
				label := fmt.Sprintf("%s/%s/seed%d", gname, sname, seed)
				compareRun(t, g, cfg, sc, label, true, 200)
			}
		}
	}
}

// TestFrontierDeliveryAndBandwidthVariants covers the delivery-order
// dimension and the bandwidth violations of mixed broadcast/unicast
// sends against the reference (the schedule dimension is covered above).
func TestFrontierDeliveryAndBandwidthVariants(t *testing.T) {
	g := gen.GNP(40, 0.15, 11, true)
	desc := schedule{opts: Options{Delivery: DeliverPortDescending}, cutoff: -1}
	descDispatch := schedule{opts: Options{Delivery: DeliverPortDescending}, cutoff: 0}
	variants := map[string]schedule{
		"descending":       desc,
		"mixed":            {cutoff: -1},
		"mixed-desc-par":   descDispatch,
		"violent-desc-par": descDispatch,
	}
	for vname, sc := range variants {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := fzConfig{seed: seed, violent: vname == "violent-desc-par", mixed: vname == "mixed" || vname == "mixed-desc-par"}
			compareRun(t, g, cfg, sc, fmt.Sprintf("%s/seed%d", vname, seed), false, 12)
		}
	}
}

// TestFrontierDenseAwakeShortcut covers buildFrontier's dense wake
// rule against the dense reference, on every schedule and both delivery
// orders. With every vertex awake, dense rounds skip the wake; with a
// third of the vertices sleeping until the dense rounds, the alarms wake
// every halted vertex and those rounds skip it too; with one vertex
// halting every round, no round may skip it, the halted vertex runs in
// dense rounds only because the probe of its ports found its mail.
func TestFrontierDenseAwakeShortcut(t *testing.T) {
	g := gen.GNP(64, 0.2, 9, true)
	for sname, sc := range schedules() {
		for _, delivery := range []DeliveryOrder{DeliverPortAscending, DeliverPortDescending} {
			sc.opts.Delivery = delivery
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/delivery%d/seed%d", sname, delivery, seed)
				sim, _ := compareRun(t, g, fzConfig{seed: seed, awake: true}, sc, label+"/awake", false, 12)
				if gs, _ := gatherCounts(sim); gs[gatherAwake] == 0 || gs[gatherProbe] != 0 {
					t.Errorf("%s/awake: gather modes %v: want shortcut rounds and no wake", label, gs)
				}
				sim, _ = compareRun(t, g, fzConfig{seed: seed, awake: true, sleepy: true}, sc, label+"/alarms", false, 12)
				if gs, alarmAwake := gatherCounts(sim); alarmAwake == 0 || gs[gatherProbe] != 0 {
					t.Errorf("%s/alarms: gather modes %v, %d alarm-woken shortcut vertex-rounds: want some and no wake", label, gs, alarmAwake)
				}
				sleeper := 1 + int(seed)*17%g.N()
				sim, _ = compareRun(t, g, fzConfig{seed: seed, awake: true, sleeper: sleeper}, sc, label+"/sleeper", false, 12)
				if gs, _ := gatherCounts(sim); gs[gatherAwake] != 0 || gs[gatherProbe] == 0 {
					t.Errorf("%s/sleeper: gather modes %v: want no shortcut and some probes with a vertex halted", label, gs)
				}
				if p := sim.Program(sleeper - 1).(*fzProg); p.gathers[gatherProbe] == 0 {
					t.Errorf("%s/sleeper: vertex %d was never woken in a dense round", label, sleeper-1)
				}
			}
		}
	}
}

// fuzzFrontierSeeds is FuzzFrontierVsDense's seed corpus.
var fuzzFrontierSeeds = []struct {
	seed        uint64
	mode, gpick uint8
}{
	{42, 0, 0}, {7, 1, 1}, {0xDEAD, 2, 2}, {9, 3, 3}, {11, 7, 2},
	{5, 8, 3}, {17, 9, 2}, {13, 10, 1}, {21, 11, 3},
}

var fuzzFrontierGraphs = []*graph.Graph{
	gen.Star(8), gen.Path(13), gen.Grid(4, 5), gen.GNP(32, 0.15, 3, true),
}

// fuzzFrontier is one FuzzFrontierVsDense case: mode picks plain,
// violent, quiescing or awake traffic (an awake case with a sleeper when
// mode/4 is odd) and, when mode/8 is odd, sleeping programs; gpick the
// topology. It returns how many vertex-rounds took the all-awake
// shortcut, and how many of those had vertices woken by alarms.
func fuzzFrontier(t *testing.T, seed uint64, mode, gpick uint8) (shortcut, alarmAwake int) {
	g := fuzzFrontierGraphs[int(gpick)%len(fuzzFrontierGraphs)]
	cfg := fzConfig{seed: seed, violent: mode%4 == 1, awake: mode%4 == 3, sleepy: mode/8%2 == 1}
	if mode%4 == 2 {
		cfg.horizon = 6
	}
	if cfg.awake && mode/4%2 == 1 {
		cfg.sleeper = 1 + int(seed%uint64(g.N()))
	}
	for sname, sc := range schedules() {
		sim, _ := compareRun(t, g, cfg, sc, sname, cfg.horizon > 0, 12)
		gs, alarms := gatherCounts(sim)
		shortcut += gs[gatherAwake]
		alarmAwake += alarms
	}
	return shortcut, alarmAwake
}

// FuzzFrontierVsDense lets the fuzzer drive the seed, topology, and mode
// through the same comparison.
func FuzzFrontierVsDense(f *testing.F) {
	for _, c := range fuzzFrontierSeeds {
		f.Add(c.seed, c.mode, c.gpick)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode, gpick uint8) {
		fuzzFrontier(t, seed, mode, gpick)
	})
}

// TestFuzzFrontierSeedsReachShortcut shows that the fuzz target's seed
// corpus drives the all-awake shortcut, also with vertices woken by
// alarms, so the fuzzer starts from inputs that exercise it.
func TestFuzzFrontierSeedsReachShortcut(t *testing.T) {
	shortcut, alarmAwake := 0, 0
	for _, c := range fuzzFrontierSeeds {
		s, a := fuzzFrontier(t, c.seed, c.mode, c.gpick)
		shortcut += s
		alarmAwake += a
	}
	if shortcut == 0 || alarmAwake == 0 {
		t.Errorf("seeds of FuzzFrontierVsDense reached the all-awake shortcut in %d vertex-rounds, %d of them with alarms: want both nonzero", shortcut, alarmAwake)
	}
}
