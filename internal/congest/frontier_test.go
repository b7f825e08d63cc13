package congest

import (
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
// on mail). Identical per-vertex transcripts, metrics, quiescence
// rounds, and violation reports across all engines and the reference
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
// exercises the compact broadcast store, its materialization when a
// unicast follows, and the per-port fallback when one precedes.
type fzSend struct {
	port      int
	kind      uint8
	word      int64
	broadcast bool
}

// fzDecision is what a vertex does in one round.
type fzDecision struct {
	sends []fzSend
	halt  bool
}

// fzConfig shapes the random behavior.
type fzConfig struct {
	seed    uint64
	violent bool // emit invalid-port / over-bandwidth sends
	mixed   bool // mix unicasts before/after broadcasts (legal only at bandwidth >= 2)
	horizon int  // if > 0: no sends and forced halt from this round on (guarantees quiescence)
}

// fzBehavior is the shared pure decision function. round 0 is Init
// (recvHash 0). Sends are a random subset of ports in ascending order
// (each a distinct port, so a bandwidth-1 budget is respected), plus —
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
		if mask%5 == 0 { // ~1/5 of sending rounds broadcast instead of unicasting
			w = splitmix(w)
			if cfg.mixed && deg > 0 && (mask>>3)&3 == 0 {
				// A unicast first forces Broadcast down the per-port path.
				d.sends = append(d.sends, fzSend{port: int(mask>>7) % deg, kind: 3, word: int64(w % 512)})
			}
			d.sends = append(d.sends, fzSend{broadcast: true, kind: 1 + uint8(w%3), word: int64(w % 1024)})
			if cfg.mixed && deg > 0 && (mask>>5)&3 == 0 {
				// A unicast after materializes the compact broadcast.
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
		case 1: // duplicate port: a bandwidth violation when Bandwidth == 1
			d.sends = append(d.sends, fzSend{port: int(x>>8) % deg, kind: 1, word: 7})
		}
	}
	d.halt = (r>>9)&1 == 0
	return d
}

// fzHash folds a delivered message list into the order-sensitive hash
// both sides feed back into fzBehavior.
func fzHash(msgs []Inbound) uint64 {
	h := uint64(0x811C9DC5)
	for _, in := range msgs {
		h = splitmix(h ^ uint64(in.Port)<<40 ^ uint64(in.Msg.Kind)<<32 ^ uint64(in.Msg.Words[0]))
	}
	return h
}

// fzProg is the congest-side face of fzBehavior.
type fzProg struct {
	cfg        fzConfig
	transcript uint64
	invoked    int
}

func (p *fzProg) Init(env *Env) {
	p.apply(env, fzBehavior(p.cfg, env.ID(), 0, 0, env.Degree()))
}

func (p *fzProg) Round(env *Env, recv []Inbound) {
	h := fzHash(recv)
	p.transcript = splitmix(p.transcript ^ h ^ uint64(env.Round()))
	p.invoked++
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
	if d.halt {
		env.Halt()
	}
}

// denseRef is the reference stepper: a from-scratch dense implementation
// of the synchronous model — per-vertex per-port inboxes, every port
// probed in delivery order, every vertex visited every round, wake on
// mail — sharing no code with the Simulator.
type denseRef struct {
	g        *graph.Graph
	cfg      fzConfig
	bw       int
	delivery DeliveryOrder

	cur, next  [][][]Message // [vertex][port] -> delivered messages
	sentOnPort []int         // per-port send counts of the sending vertex this round
	halted     []bool
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

func newDenseRef(g *graph.Graph, cfg fzConfig, bw int, delivery DeliveryOrder) *denseRef {
	r := &denseRef{g: g, cfg: cfg, bw: bw, delivery: delivery,
		halted:     make([]bool, g.N()),
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
		r.sentOnPort = append(r.sentOnPort, 0)
	}
	for _, snd := range d.sends {
		if snd.broadcast {
			// Broadcast is per-port expansion that stops at the first
			// violating port, exactly as Env.Broadcast does.
			for p := 0; p < deg; p++ {
				if r.sentOnPort[p] >= r.bw {
					r.noteViolation(v, true, p)
					break
				}
				r.sentOnPort[p]++
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
		if r.sentOnPort[snd.port] >= r.bw {
			r.noteViolation(v, true, snd.port)
			continue
		}
		r.sentOnPort[snd.port]++
		w := r.g.Neighbor(v, snd.port)
		q := r.g.PortOf(w, v)
		r.next[w][q] = append(r.next[w][q],
			Message{Kind: snd.kind, Words: [MessageWords]int64{snd.word}})
		r.messages++
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

func (r *denseRef) gather(v int) []Inbound {
	var recv []Inbound
	appendPort := func(p int) {
		for _, m := range r.cur[v][p] {
			recv = append(recv, Inbound{Port: p, Msg: m})
		}
	}
	if r.delivery == DeliverPortDescending {
		for p := r.g.Degree(v) - 1; p >= 0; p-- {
			appendPort(p)
		}
	} else {
		for p := 0; p < r.g.Degree(v); p++ {
			appendPort(p)
		}
	}
	return recv
}

func (r *denseRef) step() {
	r.round++
	for v := 0; v < r.g.N(); v++ {
		recv := r.gather(v)
		if len(recv) > 0 {
			r.halted[v] = false
		}
		if r.halted[v] {
			continue
		}
		h := fzHash(recv)
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
	for _, h := range r.halted {
		if !h {
			return false
		}
	}
	return true
}

// run mirrors Simulator.Run: Init, then up to maxRounds rounds, stopping
// at the end of the round in which the first violation occurred (an Init
// violation still executes round 1, as Run does). Returns executed
// rounds.
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

// runUntilQuiet mirrors Simulator.RunUntilQuiet.
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
// Simulator reports, so reference and engines can be compared verbatim.
func (r *denseRef) wantViolation() string {
	if !r.hasViol {
		return ""
	}
	if r.violBandwidth {
		return fmt.Sprintf("%v: vertex %d port %d round %d (bandwidth %d)",
			ErrBandwidth, r.violVert, r.violPort, r.violRound, r.bw)
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

func fzEngines() map[string]Options {
	return map[string]Options{
		"sequential":  {Engine: EngineSequential},
		"parallel":    {Engine: EngineParallel},
		"parallel-w5": {Engine: EngineParallel, Workers: 5},
	}
}

// compareRun executes the fuzz program on one engine and checks every
// observable against the dense reference.
func compareRun(t *testing.T, g *graph.Graph, cfg fzConfig, opts Options, label string,
	untilQuiet bool, maxRounds int) (violated bool) {
	t.Helper()
	ref := newDenseRef(g, cfg, max(opts.Bandwidth, 1), opts.Delivery)
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
		_, runErr = sim.RunUntilQuiet(maxRounds)
	} else {
		runErr = sim.Run(maxRounds)
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
	return ref.hasViol
}

// TestFrontierMatchesDenseReference is the property test: randomized
// Halt/wake/send programs produce identical executions on the frontier
// stepper (all engines, both delivery orders, bandwidth 1 and 2) and the
// dense reference.
func TestFrontierMatchesDenseReference(t *testing.T) {
	for gname, g := range fzGraphs() {
		for ename, opts := range fzEngines() {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg := fzConfig{seed: seed}
				label := fmt.Sprintf("%s/%s/seed%d", gname, ename, seed)
				compareRun(t, g, cfg, opts, label, false, 12)
			}
		}
	}
}

// TestFrontierMatchesDenseReferenceViolent checks that model violations
// from random rounds — the one place the engines race — are reported
// with the identical canonical error, and that the run stops at the
// reference round.
func TestFrontierMatchesDenseReferenceViolent(t *testing.T) {
	violations := 0
	for gname, g := range fzGraphs() {
		for ename, opts := range fzEngines() {
			for seed := uint64(1); seed <= 6; seed++ {
				cfg := fzConfig{seed: seed, violent: true}
				label := fmt.Sprintf("%s/%s/seed%d", gname, ename, seed)
				if compareRun(t, g, cfg, opts, label, false, 10) {
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
// a horizon and checks RunUntilQuiet agrees with the reference on the
// exact quiescence round — the O(1) quiet() against the dense scan.
func TestFrontierQuiescenceMatchesDenseReference(t *testing.T) {
	for gname, g := range fzGraphs() {
		for ename, opts := range fzEngines() {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := fzConfig{seed: seed, horizon: 7}
				label := fmt.Sprintf("%s/%s/seed%d", gname, ename, seed)
				compareRun(t, g, cfg, opts, label, true, 200)
			}
		}
	}
}

// TestFrontierDeliveryAndBandwidthVariants covers the delivery-order and
// bandwidth dimensions against the reference (sequential engine; the
// engine dimension is covered above).
func TestFrontierDeliveryAndBandwidthVariants(t *testing.T) {
	g := gen.GNP(40, 0.15, 11, true)
	variants := map[string]Options{
		"descending":   {Delivery: DeliverPortDescending},
		"bandwidth2":   {Bandwidth: 2},
		"desc-bw2-par": {Delivery: DeliverPortDescending, Bandwidth: 2, Engine: EngineParallel},
		"mixed-bw1":    {}, // broadcast+unicast mixes violate at bandwidth 1
	}
	for vname, opts := range variants {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := fzConfig{seed: seed, violent: vname == "bandwidth2", mixed: vname != "descending"}
			compareRun(t, g, cfg, opts, fmt.Sprintf("%s/seed%d", vname, seed), false, 12)
		}
	}
}

// FuzzFrontierVsDense lets the fuzzer drive the seed, topology, and mode
// through the same comparison.
func FuzzFrontierVsDense(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(1))
	f.Add(uint64(0xDEAD), uint8(2), uint8(2))
	graphs := []*graph.Graph{
		gen.Star(8), gen.Path(13), gen.Grid(4, 5), gen.GNP(32, 0.15, 3, true),
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode, gpick uint8) {
		g := graphs[int(gpick)%len(graphs)]
		cfg := fzConfig{seed: seed, violent: mode%3 == 1}
		if mode%3 == 2 {
			cfg.horizon = 6
		}
		for ename, opts := range fzEngines() {
			compareRun(t, g, cfg, opts, ename, cfg.horizon > 0, 12)
		}
	})
}
