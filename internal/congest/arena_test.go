package congest

import (
	"context"
	"testing"

	"nearspan/internal/gen"
)

// localSender: only low-ID vertices send, so traffic concentrates in a
// few arena pages of a large slot space.
type localSender struct{ fzProg }

func (p *localSender) Init(env *Env) {
	if env.ID() < 32 && env.Degree() > 0 {
		_ = env.Send(0, Message{Kind: 1})
	} else {
		env.Halt()
	}
}

func (p *localSender) Round(env *Env) {
	if env.Round() < 5 && env.ID() < 32 && env.Degree() > 0 {
		_ = env.Send(env.Round()%env.Degree(), Message{Kind: 1, Words: [MessageWords]int64{int64(env.Round())}})
	} else {
		env.Halt()
	}
}

// TestArenaBytesMeasuredAndDeterministic: a new simulator holds no
// arena page, and the pages traffic touches track it (a sparse protocol
// on a large graph stays far below the worst case) identically with
// every round inline and with every round dispatched.
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
		if got := sim.pageBytes.Load(); got != 0 {
			t.Fatalf("%s: a new simulator holds %d bytes of arena pages, want 0", label, got)
		}
		_, err = sim.RunUntilQuietContext(context.Background(), 50)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.pageBytes.Load(); got == 0 {
			t.Fatalf("%s: no pages allocated — weak test setup (no unicast traffic)", label)
		}
		got := sim.ArenaBytes()
		if wc := sim.ArenaBytesWorstCase(); got >= wc {
			t.Errorf("%s: measured arena %d not below worst case %d on a sparse run",
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
// phase-0 announcement shape. With compact broadcasts the unicast arena
// should stay untouched: no message page is ever allocated.
type broadcastAll struct{ rounds int }

func (p *broadcastAll) Init(env *Env) { _ = env.Broadcast(Message{Kind: 9}) }

func (p *broadcastAll) Round(env *Env) {
	if env.Round() >= p.rounds {
		env.Halt()
		return
	}
	_ = env.Broadcast(Message{Kind: 9, Words: [MessageWords]int64{int64(env.Round())}})
}

// TestBroadcastAllAllocatesNoPages: a pure-broadcast protocol — every
// vertex broadcasting every round — must not allocate a single lazy
// unicast page; its traffic lives in the O(n) compact arenas. This is
// the property that keeps a 10⁷-edge build's arena 4× under the
// worst-case formula even through dense announcement phases.
func TestBroadcastAllAllocatesNoPages(t *testing.T) {
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
	if got := sim.pageBytes.Load(); got != 0 {
		t.Errorf("broadcast-only protocol allocated %d bytes of unicast pages, want 0", got)
	}
	wantMsgs := int64(0)
	for v := 0; v < g.N(); v++ {
		wantMsgs += int64(g.Degree(v)) * 4 // Init + rounds 1..3 (round 4 halts)
	}
	if m := sim.Metrics(); m.Messages != wantMsgs {
		t.Errorf("messages = %d, want %d (deg messages per broadcast)", m.Messages, wantMsgs)
	}
}
