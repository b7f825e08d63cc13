package congest

import (
	"context"
	"testing"

	"nearspan/internal/gen"
)

// localSender: only the localSenders lowest-ID vertices send, so a round
// carries a few unicasts in a large slot space. The count fills no
// allocation size class exactly, so the lists' capacity exceeds it.
type localSender struct{ fzProg }

const localSenders = 37

func (p *localSender) Init(env *Env) {
	if env.ID() < localSenders && env.Degree() > 0 {
		_ = env.Send(0, Message{Kind: 1})
	} else {
		env.Halt()
	}
}

func (p *localSender) Round(env *Env) {
	if env.Round() < 5 && env.ID() < localSenders && env.Degree() > 0 {
		_ = env.Send(env.Round()%env.Degree(), Message{Kind: 1, Words: [MessageWords]int64{int64(env.Round())}})
	} else {
		env.Halt()
	}
}

// TestArenaBytesMeasuredAndDeterministic: a new simulator holds no
// unicast storage, the unicast high-water is the most unicasts two
// consecutive rounds carried (a sparse protocol on a large graph stays
// far below the worst case), and ArenaBytes is identical with every
// round inline and with every round dispatched.
func TestArenaBytesMeasuredAndDeterministic(t *testing.T) {
	g := gen.GNP(2048, 6.0/2048, 19, true)
	newProg := func(v int) Program { return &localSender{} }

	var want int64
	for i, label := range []string{"sequential", "parallel-dispatch"} {
		sc := schedules()[label]
		restore := sc.force()
		sim, err := NewUniform(g, newProg, sc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if sim.uniHigh != 0 || cap(sim.curUni) != 0 || cap(sim.nxUni) != 0 {
			t.Fatalf("%s: a new simulator holds unicast storage (high-water %d, capacities %d/%d)",
				label, sim.uniHigh, cap(sim.curUni), cap(sim.nxUni))
		}
		_, err = sim.RunUntilQuietContext(context.Background(), 50)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if sim.uniHigh == 0 {
			t.Fatalf("%s: unicast high-water 0 — weak test setup (no unicast traffic)", label)
		}
		// Init and rounds 1–4 each send localSenders unicasts.
		if sim.uniHigh != 2*localSenders {
			t.Errorf("%s: unicast high-water %d, want two rounds' %d unicasts",
				label, sim.uniHigh, 2*localSenders)
		}
		got := sim.ArenaBytes()
		if wc := sim.ArenaBytesWorstCase(); 4*got > wc {
			t.Errorf("%s: measured arena %d not 4× below worst case %d on a sparse run",
				label, got, wc)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%s: ArenaBytes = %d, want %d (deterministic across schedules)",
				label, got, want)
		}
	}
}

// broadcastAll floods a broadcast from every vertex each round — the
// phase-0 announcement shape. With compact broadcasts the unicast list
// should stay empty.
type broadcastAll struct{ rounds int }

func (p *broadcastAll) Init(env *Env) { _ = env.Broadcast(Message{Kind: 9}) }

func (p *broadcastAll) Round(env *Env) {
	if env.Round() >= p.rounds {
		env.Halt()
		return
	}
	_ = env.Broadcast(Message{Kind: 9, Words: [MessageWords]int64{int64(env.Round())}})
}

// TestBroadcastAllLeavesUnicastListEmpty: a pure-broadcast protocol —
// every vertex broadcasting every round — must never grow the unicast
// list; its traffic lives in the O(n) compact arenas. This is the
// property that keeps a 10⁷-edge build's arena 4× under the worst-case
// formula even through dense announcement phases.
func TestBroadcastAllLeavesUnicastListEmpty(t *testing.T) {
	g := gen.GNP(512, 12.0/512, 31, true)
	sim, err := NewUniform(g, func(v int) Program { return &broadcastAll{rounds: 4} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := sim.RunUntilQuietContext(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("protocol did not run")
	}
	if sim.uniHigh != 0 || cap(sim.curUni) != 0 || cap(sim.nxUni) != 0 || cap(sim.shards[0].log.uni) != 0 {
		t.Errorf("broadcast-only protocol grew the unicast list (high-water %d, capacities %d/%d, log %d)",
			sim.uniHigh, cap(sim.curUni), cap(sim.nxUni), cap(sim.shards[0].log.uni))
	}
	wantMsgs := int64(0)
	for v := 0; v < g.N(); v++ {
		wantMsgs += int64(g.Degree(v)) * 4 // Init + rounds 1..3 (round 4 halts)
	}
	if m := sim.Metrics(); m.Messages != wantMsgs {
		t.Errorf("messages = %d, want %d (deg messages per broadcast)", m.Messages, wantMsgs)
	}
}
