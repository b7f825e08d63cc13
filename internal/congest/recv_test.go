package congest

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// This file pins Env.Recv's contract on every schedule and both delivery
// orders: a range may stop early, may be repeated within the callback,
// is empty during Init, and shows a vertex woken by mail exactly that
// mail — in the dense port-probe rounds and the inbox-driven ones alike.

// forEachRecvSchedule runs f once per schedule and delivery order.
func forEachRecvSchedule(t *testing.T, f func(t *testing.T, opts Options)) {
	for sname, sc := range schedules() {
		for _, delivery := range []DeliveryOrder{DeliverPortAscending, DeliverPortDescending} {
			t.Run(fmt.Sprintf("%s/delivery%d", sname, delivery), func(t *testing.T) {
				t.Cleanup(sc.force())
				opts := sc.opts
				opts.Delivery = delivery
				f(t, opts)
			})
		}
	}
}

// recvHit is one (arrival port, message) pair a range yielded.
type recvHit struct {
	port int
	m    Message
}

// recvLog is what one vertex saw in one invocation.
type recvLog struct {
	round              int
	dense              bool      // the round probed ports instead of reading the inbox
	prefix, all, again []recvHit // an early-stopped range, then two full ones
}

// recvProbe halts every round, so it runs only when mail wakes it, and
// until horizon sends its ID and the round on every port: by Broadcast
// at even vertices and by one Send per port at odd ones, so both stores
// are read. sparse lets only a third of the vertices send each round,
// which keeps the rounds below the dense threshold.
type recvProbe struct {
	sparse  bool
	horizon int
	log     []recvLog
}

func (p *recvProbe) Init(env *Env) {
	p.send(env)
	env.Halt()
}

func (p *recvProbe) Round(env *Env) {
	l := recvLog{round: env.Round(), dense: env.sim.gather != gatherInbox}
	for port, m := range env.Recv() {
		if len(l.prefix) == 1 {
			break
		}
		l.prefix = append(l.prefix, recvHit{port, m})
	}
	for port, m := range env.Recv() {
		l.all = append(l.all, recvHit{port, m})
	}
	for port, m := range env.Recv() {
		l.again = append(l.again, recvHit{port, m})
	}
	p.log = append(p.log, l)
	p.send(env)
	env.Halt()
}

func (p *recvProbe) sends(v, round int) bool {
	return round < p.horizon && (!p.sparse || (v+round)%3 == 0)
}

func (p *recvProbe) send(env *Env) {
	if !p.sends(env.ID(), env.Round()) {
		return
	}
	m := Message{Kind: 1, Words: [MessageWords]int64{int64(env.ID()), int64(env.Round())}}
	if env.ID()%2 == 0 {
		_ = env.Broadcast(m)
		return
	}
	for port := 0; port < env.Degree(); port++ {
		_ = env.Send(port, m)
	}
}

// wantMail replays the probe's rules on g: mail[r][v] is what vertex v
// holds in round r, in delivery order. A vertex sends in round r only if
// r is 0 (Init) or mail woke it.
func wantMail(g *graph.Graph, p *recvProbe, delivery DeliveryOrder) [][][]recvHit {
	mail := make([][][]recvHit, p.horizon+1)
	for r := range mail {
		mail[r] = make([][]recvHit, g.N())
	}
	for r := 1; r <= p.horizon; r++ {
		for v := 0; v < g.N(); v++ {
			for port := 0; port < g.Degree(v); port++ {
				u := g.Neighbor(v, port)
				if (r == 1 || len(mail[r-1][u]) > 0) && p.sends(u, r-1) {
					m := Message{Kind: 1, Words: [MessageWords]int64{int64(u), int64(r - 1)}}
					mail[r][v] = append(mail[r][v], recvHit{port, m})
				}
			}
			if delivery == DeliverPortDescending {
				slices.Reverse(mail[r][v])
			}
		}
	}
	return mail
}

// runRecvProbe runs the probe to quiescence in the dense and the sparse
// shape and checks every vertex ran exactly in the rounds it had mail.
// check then inspects each invocation against its expected mail.
func runRecvProbe(t *testing.T, opts Options, check func(t *testing.T, v int, l recvLog, want []recvHit)) {
	const horizon = 6
	g := gen.GNP(40, 0.15, 11, true)
	for _, sparse := range []bool{false, true} {
		mail := wantMail(g, &recvProbe{sparse: sparse, horizon: horizon}, opts.Delivery)
		sim, err := NewUniform(g, func(int) Program { return &recvProbe{sparse: sparse, horizon: horizon} }, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuietContext(context.Background(), 3*horizon); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			var got, want []int
			for _, l := range sim.Program(v).(*recvProbe).log {
				got = append(got, l.round)
				if l.dense == sparse {
					t.Errorf("sparse=%v vertex %d round %d: dense=%v", sparse, v, l.round, l.dense)
				}
				if l.round <= horizon {
					check(t, v, l, mail[l.round][v])
				}
			}
			for r := 1; r <= horizon; r++ {
				if len(mail[r][v]) > 0 {
					want = append(want, r)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("sparse=%v vertex %d: ran in rounds %v, had mail in %v", sparse, v, got, want)
			}
		}
	}
}

// TestRecvBreakEarly: a range stopped after one message leaves the round
// intact. The next full range still sees the whole delivery, the sends
// and the Halt after it take effect, and the next round wakes exactly
// the vertices with mail and delivers it exactly.
func TestRecvBreakEarly(t *testing.T) {
	forEachRecvSchedule(t, func(t *testing.T, opts Options) {
		runRecvProbe(t, opts, func(t *testing.T, v int, l recvLog, want []recvHit) {
			if !slices.Equal(l.all, want) {
				t.Errorf("vertex %d round %d: received %v, want %v", v, l.round, l.all, want)
			}
			if !slices.Equal(l.prefix, want[:min(1, len(want))]) {
				t.Errorf("vertex %d round %d: stopped range saw %v, want the first of %v", v, l.round, l.prefix, want)
			}
		})
	})
}

// TestRecvRangesTwice: ranging Recv again inside the same callback yields
// the identical sequence; the callback's own sends do not disturb it.
func TestRecvRangesTwice(t *testing.T) {
	forEachRecvSchedule(t, func(t *testing.T, opts Options) {
		runRecvProbe(t, opts, func(t *testing.T, v int, l recvLog, _ []recvHit) {
			if !slices.Equal(l.again, l.all) {
				t.Errorf("vertex %d round %d: second range %v, first %v", v, l.round, l.again, l.all)
			}
		})
	})
}

// initRecvCounter counts what Recv yields during Init, and chatters
// every round so a run always leaves messages in flight.
type initRecvCounter struct{ initGot int }

func (p *initRecvCounter) Init(env *Env) {
	for range env.Recv() {
		p.initGot++
	}
	_ = env.Broadcast(Message{Kind: 2})
}

func (p *initRecvCounter) Round(env *Env) { _ = env.Broadcast(Message{Kind: 2}) }

// TestRecvEmptyDuringInit: Init sees no messages, on a fresh simulator
// and on one Reset while a previous run's broadcasts were in flight.
func TestRecvEmptyDuringInit(t *testing.T) {
	forEachRecvSchedule(t, func(t *testing.T, opts Options) {
		g := gen.Grid(5, 6)
		factory := func(int) Program { return &initRecvCounter{} }
		sim, err := NewUniform(g, factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if err := sim.RunContext(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
			if total, _ := sim.Pending(); total == 0 {
				t.Fatalf("run %d: nothing in flight before the reset", run)
			}
			for v := 0; v < g.N(); v++ {
				if got := sim.Program(v).(*initRecvCounter).initGot; got != 0 {
					t.Errorf("run %d vertex %d: Recv yielded %d messages during Init", run, v, got)
				}
			}
			sim.ResetUniform(factory)
		}
	})
}

// mailRecorder is halted from Init on. One vertex sends one unicast
// from Init; whoever receives a message records it and answers on the
// arrival port once.
type mailRecorder struct {
	sendPort int // Init sends here when >= 0
	got      []recvLog
}

func (p *mailRecorder) Init(env *Env) {
	if p.sendPort >= 0 {
		_ = env.Send(p.sendPort, Message{Kind: 3, Words: [MessageWords]int64{7}})
	}
	env.Halt()
}

func (p *mailRecorder) Round(env *Env) {
	l := recvLog{round: env.Round(), dense: env.sim.gather != gatherInbox}
	for port, m := range env.Recv() {
		l.all = append(l.all, recvHit{port, m})
	}
	p.got = append(p.got, l)
	if env.Round() == 1 && len(l.all) > 0 {
		_ = env.Send(l.all[0].port, Message{Kind: 4, Words: [MessageWords]int64{8}})
	}
	env.Halt()
}

// TestRecvWokenVertexSeesItsMail: a halted vertex woken by one message
// runs once and sees exactly that message, and so does the sender woken
// by the reply. No other vertex runs. The star's one message of 10
// slots is an inbox-driven round; the 2-path's fills half its slots, a
// dense one.
func TestRecvWokenVertexSeesItsMail(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		from, out int // Init sender and its port
		dense     bool
	}{
		{"star", gen.Star(6), 0, 2, false},
		{"path2", gen.Path(2), 0, 0, true},
	}
	forEachRecvSchedule(t, func(t *testing.T, opts Options) {
		for _, c := range cases {
			sim, err := NewUniform(c.g, func(v int) Program {
				p := &mailRecorder{sendPort: -1}
				if v == c.from {
					p.sendPort = c.out
				}
				return p
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.RunUntilQuietContext(context.Background(), 10); err != nil {
				t.Fatal(err)
			}
			to := c.g.Neighbor(c.from, c.out)
			back := c.g.PortOf(to, c.from)
			want := map[int][]recvLog{
				to:     {{round: 1, dense: c.dense, all: []recvHit{{back, Message{Kind: 3, Words: [MessageWords]int64{7}}}}}},
				c.from: {{round: 2, dense: c.dense, all: []recvHit{{c.out, Message{Kind: 4, Words: [MessageWords]int64{8}}}}}},
			}
			for v := 0; v < c.g.N(); v++ {
				got := sim.Program(v).(*mailRecorder).got
				if !slices.EqualFunc(got, want[v], func(a, b recvLog) bool {
					return a.round == b.round && a.dense == b.dense && slices.Equal(a.all, b.all)
				}) {
					t.Errorf("%s vertex %d: ran %+v, want %+v", c.name, v, got, want[v])
				}
			}
		}
	})
}
