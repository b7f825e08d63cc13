package congest

import (
	"errors"
	"fmt"
	"testing"

	"nearspan/internal/gen"
)

// TestBandwidthCapRejected pins the uint16 counter guard: a bandwidth
// that would wrap the per-slot counters must be rejected at
// construction, not silently truncated at scale.
func TestBandwidthCapRejected(t *testing.T) {
	g := gen.Path(3)
	progs := make([]Program, g.N())
	for v := range progs {
		progs[v] = &fzProg{}
	}
	if _, err := New(g, progs, Options{Bandwidth: MaxBandwidth + 1}); err == nil {
		t.Fatal("New accepted bandwidth 65536, which wraps the uint16 slot counters")
	}
	if _, err := New(g, progs, Options{Bandwidth: MaxBandwidth}); err != nil {
		t.Fatalf("New rejected bandwidth %d: %v", MaxBandwidth, err)
	}
}

// maxSender sends exactly MaxBandwidth messages on port 0 in round 1 and
// then one more: the counter must sit at its ceiling and the extra send
// must be a bandwidth violation, not a wraparound that re-opens the slot.
type maxSender struct {
	over error
}

func (p *maxSender) Init(env *Env) {}

func (p *maxSender) Round(env *Env, recv []Inbound) {
	if env.ID() != 0 || env.Round() != 1 {
		env.Halt()
		return
	}
	for i := 0; i < MaxBandwidth; i++ {
		if err := env.Send(0, Message{Kind: 1, Words: [MessageWords]int64{int64(i)}}); err != nil {
			p.over = fmt.Errorf("send %d: %w", i, err)
			return
		}
	}
	p.over = env.Send(0, Message{Kind: 1})
	env.Halt()
}

// TestCounterSaturationAtMaxBandwidth is the overflow regression test at
// the counter boundary: 65535 sends on one slot succeed and are all
// delivered; the 65536th is a violation.
func TestCounterSaturationAtMaxBandwidth(t *testing.T) {
	g := gen.Path(2)
	prog := &maxSender{}
	sink := &fzProg{cfg: fzConfig{horizon: 1}}
	sim, err := New(g, []Program{prog, sink}, Options{Bandwidth: MaxBandwidth})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(2)
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("Run error = %v, want bandwidth violation from the 65536th send", err)
	}
	if !errors.Is(prog.over, ErrBandwidth) {
		t.Fatalf("overflow send error = %v, want ErrBandwidth", prog.over)
	}
	if got := sim.Metrics().Messages; got != MaxBandwidth {
		t.Fatalf("messages sent = %d, want %d (no wraparound loss)", got, MaxBandwidth)
	}
}

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

func (p *localSender) Round(env *Env, recv []Inbound) {
	if env.Round() < 5 && env.ID() < 32 && env.Degree() > 0 {
		_ = env.Send(env.Round()%env.Degree(), Message{Kind: 1, Words: [MessageWords]int64{int64(env.Round())}})
	} else {
		env.Halt()
	}
}

// TestArenaBytesMeasuredAndDeterministic: with nothing preallocated
// (ArenaFraction -1) the arena footprint tracks traffic (a sparse
// protocol on a large graph stays far below the worst case) and is
// identical across engines; ArenaFraction >= 1 reproduces the full
// worst-case footprint.
func TestArenaBytesMeasuredAndDeterministic(t *testing.T) {
	g := gen.GNP(2048, 6.0/2048, 19, true)
	newProg := func(v int) Program { return &localSender{} }

	var want int64
	for i, opts := range []Options{
		{Engine: EngineSequential, ArenaFraction: -1},
		{Engine: EngineParallel, ArenaFraction: -1},
	} {
		sim, err := NewUniform(g, newProg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuiet(50); err != nil {
			t.Fatal(err)
		}
		if got := sim.pageBytes.Load(); got == 0 {
			t.Fatalf("%s: no pages allocated — weak test setup (no unicast traffic)", opts.Engine)
		}
		got := sim.ArenaBytes()
		if wc := sim.ArenaBytesWorstCase(); got >= wc {
			t.Errorf("%s: measured arena %d not below worst case %d on a sparse run",
				opts.Engine, got, wc)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%s (frac %v): ArenaBytes = %d, want %d (deterministic across engines)",
				opts.Engine, opts.ArenaFraction, got, want)
		}
	}

	// Full preallocation reproduces the legacy fixed footprint.
	sim, err := NewUniform(g, newProg, Options{ArenaFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, wc := sim.ArenaBytes(), sim.ArenaBytesWorstCase(); got != wc {
		t.Errorf("ArenaFraction 1: ArenaBytes = %d, want worst case %d", got, wc)
	}
}

// TestArenaFractionBitIdentical: preallocation policy must not leak into
// the execution.
func TestArenaFractionBitIdentical(t *testing.T) {
	g := gen.GNP(256, 8.0/256, 23, true)
	run := func(frac float64) (Metrics, string, []uint64) {
		sim, err := NewUniform(g, func(v int) Program {
			return &fzProg{cfg: fzConfig{seed: 5, mixed: true}}
		}, Options{Bandwidth: 2, ArenaFraction: frac})
		if err != nil {
			t.Fatal(err)
		}
		// Mixed broadcast/unicast traffic can legitimately violate; the
		// violation (if any) must also be preallocation-independent.
		violation := ""
		if err := sim.Run(10); err != nil {
			violation = err.Error()
		}
		tr := make([]uint64, g.N())
		for v := range tr {
			tr[v] = sim.Program(v).(*fzProg).transcript
		}
		return sim.Metrics(), violation, tr
	}
	wantM, wantV, wantT := run(0)
	for _, frac := range []float64{-1, 0.5, 1} {
		m, viol, tr := run(frac)
		if m != wantM || viol != wantV {
			t.Errorf("frac %v: metrics %+v violation %q, want %+v %q", frac, m, viol, wantM, wantV)
		}
		for v := range tr {
			if tr[v] != wantT[v] {
				t.Fatalf("frac %v: vertex %d transcript %x, want %x", frac, v, tr[v], wantT[v])
			}
		}
	}
}

// broadcastAll floods a broadcast from every vertex each round — the
// phase-0 announcement shape. With compact broadcasts the unicast arena
// should stay untouched: no message pages beyond the preallocation.
type broadcastAll struct{ rounds int }

func (p *broadcastAll) Init(env *Env) { _ = env.Broadcast(Message{Kind: 9}) }

func (p *broadcastAll) Round(env *Env, recv []Inbound) {
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
	sim, err := NewUniform(g, func(v int) Program { return &broadcastAll{rounds: 4} },
		Options{Engine: EngineParallel, ArenaFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := sim.RunUntilQuiet(10)
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
