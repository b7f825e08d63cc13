package congest

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"nearspan/internal/gen"
	"nearspan/internal/sched"
)

// A reused simulator must be indistinguishable from a fresh one: after
// Reset, a different protocol on the same topology produces bit-identical
// histories and metrics, with every round inline and with every round
// dispatched.
func TestResetMatchesFreshRun(t *testing.T) {
	g := gen.GNP(60, 0.08, 11, true)
	for _, label := range []string{"sequential", "parallel-dispatch"} {
		sc := schedules()[label]
		restore := sc.force()
		opts := sc.opts
		fresh, freshM := runGossip(t, g, opts, 12)

		sim, err := NewUniform(g, newFlood(0), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
			t.Fatal(err)
		}
		sim.ResetUniform(func(v int) Program { return &gossipProg{horizon: 12} })
		if err := sim.RunContext(context.Background(), 13); err != nil {
			t.Fatal(err)
		}
		if sim.Metrics() != freshM {
			t.Errorf("%s: reused metrics %+v, fresh %+v", label, sim.Metrics(), freshM)
		}
		for v := 0; v < g.N(); v++ {
			got := sim.Program(v).(*gossipProg).history
			for r := range fresh[v] {
				if got[r] != fresh[v][r] {
					t.Errorf("%s vertex %d round %d: reused %d, fresh %d",
						label, v, r, got[r], fresh[v][r])
				}
			}
		}
		restore()
	}
}

// Reset must also rewind a run that ended with a recorded violation and
// with messages still in flight.
func TestResetClearsViolationAndPending(t *testing.T) {
	g := gen.Path(4)
	sim, err := NewUniform(g, func(v int) Program { return &overSender{} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), 1); err == nil {
		t.Fatal("over-sender should violate bandwidth")
	}
	sim.ResetUniform(newFlood(0))
	// Interrupt the flood mid-flight: messages remain pending.
	if err := sim.RunContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if total, byKind := sim.Pending(); total == 0 || byKind[kindToken] != total {
		t.Fatalf("expected pending flood tokens, got total=%d byKind=%v", total, byKind)
	}
	sim.ResetUniform(newFlood(0))
	if total, _ := sim.Pending(); total != 0 {
		t.Fatalf("Reset left %d messages pending", total)
	}
	if _, err := sim.RunUntilQuietContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	want := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if int32(sim.Program(v).(*floodProg).dist) != want[v] {
			t.Errorf("vertex %d: dist %d after reset, want %d",
				v, sim.Program(v).(*floodProg).dist, want[v])
		}
	}
}

// Reset must also clear a recorded program panic: a caller that
// recovered the re-raised panic and Reset the simulator gets a clean
// run, not the previous run's panic replayed.
func TestResetClearsRecordedPanicParallel(t *testing.T) {
	g := gen.Grid(5, 5)
	sim, err := NewUniform(g, func(v int) Program { return &panicProg{boom: v == 2} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("program panic was not re-raised")
			}
		}()
		_ = sim.RunContext(context.Background(), 5)
	}()
	sim.ResetUniform(newFlood(0))
	if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
		t.Fatalf("reset-after-panic run failed: %v", err)
	}
	want := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if int32(sim.Program(v).(*floodProg).dist) != want[v] {
			t.Errorf("vertex %d: dist %d after panic+reset, want %d",
				v, sim.Program(v).(*floodProg).dist, want[v])
		}
	}
}

// Reset must rewind the frontier machinery itself: the unicast lists
// and their at table, the sent flags, the shard send logs, the
// inbox/mail state, and the active list all return to their pre-Init
// emptiness, so a reused simulator's O(activity) bookkeeping cannot leak
// traffic or wakes into the next protocol — and a rerun after the rewind
// is bit-identical to a fresh simulator's.
func TestResetRewindsDirtyLists(t *testing.T) {
	g := gen.GNP(40, 0.12, 9, true)
	newProg := func(v int) Program { return &fzProg{cfg: fzConfig{seed: 3}} }
	for _, label := range []string{"sequential", "parallel-dispatch"} {
		sc := schedules()[label]
		restore := sc.force()
		opts := sc.opts
		// Fresh run for the comparison target.
		fresh, err := NewUniform(g, newProg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RunContext(context.Background(), 8); err != nil {
			t.Fatal(err)
		}

		// Interrupt a run mid-flight so the dirty machinery is loaded.
		sim, err := NewUniform(g, newProg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		if len(sim.curUni) == 0 || len(sim.curBcastL) == 0 {
			t.Fatalf("%s: workload left no unicasts or no broadcasts in flight — weak test setup", label)
		}
		sim.ResetUniform(newProg)
		if len(sim.curUni) != 0 || len(sim.nxUni) != 0 {
			t.Errorf("%s: Reset left unicast lists: cur %d, next %d",
				label, len(sim.curUni), len(sim.nxUni))
		}
		if i := slices.IndexFunc(sim.at, func(a int32) bool { return a != 0 }); i >= 0 {
			t.Errorf("%s: Reset left slot %d filed at %d", label, i, sim.at[i])
		}
		if i := slices.Index(sim.sent, true); i >= 0 {
			t.Errorf("%s: Reset left slot %d flagged sent", label, i)
		}
		if len(sim.active) != 0 || len(sim.frontier) != 0 || len(sim.mail) != 0 || len(sim.woken) != 0 {
			t.Errorf("%s: Reset left scheduling state: active %d frontier %d mail %d woken %d",
				label, len(sim.active), len(sim.frontier), len(sim.mail), len(sim.woken))
		}
		if len(sim.curBcastL) != 0 || len(sim.nxBcastL) != 0 {
			t.Errorf("%s: Reset left broadcaster lists: cur %d, next %d",
				label, len(sim.curBcastL), len(sim.nxBcastL))
		}
		for i, st := range sim.shards {
			if l := st.log; len(l.uni) != 0 || len(l.bcast) != 0 || len(l.sleep) != 0 {
				t.Errorf("%s: Reset left shard %d's send log (%d unicasts, %d bcast, %d sleep)",
					label, i, len(l.uni), len(l.bcast), len(l.sleep))
			}
		}
		for v := range sim.inbox {
			if len(sim.inbox[v]) != 0 {
				t.Errorf("%s: Reset left vertex %d inbox (%d ports)", label, v, len(sim.inbox[v]))
			}
		}
		if total, _ := sim.Pending(); total != 0 {
			t.Errorf("%s: Pending after Reset = %d", label, total)
		}

		// The rewound simulator replays the fresh execution exactly.
		if err := sim.RunContext(context.Background(), 8); err != nil {
			t.Fatal(err)
		}
		if sim.Metrics() != fresh.Metrics() {
			t.Errorf("%s: reused metrics %+v, fresh %+v", label, sim.Metrics(), fresh.Metrics())
		}
		for v := 0; v < g.N(); v++ {
			got := sim.Program(v).(*fzProg)
			want := fresh.Program(v).(*fzProg)
			if got.transcript != want.transcript || got.invoked != want.invoked {
				t.Errorf("%s vertex %d: reused transcript %x/%d, fresh %x/%d",
					label, v, got.transcript, got.invoked, want.transcript, want.invoked)
			}
		}
		restore()
	}
}

// uniPanic unicasts on every port in Init and in round 1, where the boom
// vertex panics after its sends: the aborted round leaves sent flags and
// unmerged shard-log unicasts behind.
type uniPanic struct{ boom bool }

func (p *uniPanic) Init(env *Env) { sendAll(env, 0) }
func (p *uniPanic) Round(env *Env) {
	sendAll(env, 0)
	if p.boom {
		panic("intentional test panic")
	}
}

// uniEcho unicasts on every port in Init and its first rounds, each
// message carrying a hash of what it received, then halts.
type uniEcho struct{ transcript uint64 }

func (p *uniEcho) Init(env *Env) { sendAll(env, 0) }
func (p *uniEcho) Round(env *Env) {
	for port, m := range env.Recv() {
		p.transcript = fzFold(p.transcript, port, m)
	}
	if env.Round() < 4 {
		sendAll(env, int64(p.transcript))
	} else {
		env.Halt()
	}
}

func sendAll(env *Env, w int64) {
	for port := range env.Degree() {
		_ = env.Send(port, Message{Kind: 5, Words: [MessageWords]int64{w, int64(env.ID())}})
	}
}

// A round that panics after some vertices sent unicasts must leave
// nothing behind a Reset: a unicast protocol on the reset simulator
// reports no bandwidth violation on the slots the aborted round flagged
// and matches a fresh simulator, with every round inline and with every
// round dispatched.
func TestResetAfterPanicMidUnicastRound(t *testing.T) {
	g := gen.GNP(80, 0.1, 5, true)
	newEcho := func(v int) Program { return &uniEcho{} }
	for _, label := range []string{"sequential", "parallel-dispatch"} {
		t.Run(label, func(t *testing.T) {
			sc := schedules()[label]
			defer sc.force()()
			fresh, err := NewUniform(g, newEcho, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.RunUntilQuietContext(context.Background(), 10); err != nil {
				t.Fatal(err)
			}

			sim, err := NewUniform(g, func(v int) Program { return &uniPanic{boom: v == 40} }, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != "vertex 40: intentional test panic" {
						t.Errorf("recovered %v, want vertex 40's panic", r)
					}
				}()
				_ = sim.RunContext(context.Background(), 2)
			}()
			if !slices.Contains(sim.sent, true) {
				t.Fatal("the aborted round left no sent flag — weak test setup")
			}
			sim.ResetUniform(newEcho)
			if _, err := sim.RunUntilQuietContext(context.Background(), 10); err != nil {
				t.Fatalf("unicast run after panic+reset: %v", err)
			}
			if sim.Metrics() != fresh.Metrics() {
				t.Errorf("reused metrics %+v, fresh %+v", sim.Metrics(), fresh.Metrics())
			}
			for v := 0; v < g.N(); v++ {
				if got, want := sim.Program(v).(*uniEcho).transcript, fresh.Program(v).(*uniEcho).transcript; got != want {
					t.Errorf("vertex %d: reused transcript %x, fresh %x", v, got, want)
				}
			}
		})
	}
}

func TestResetProgramCountMismatch(t *testing.T) {
	g := gen.Path(3)
	sim, err := NewUniform(g, newFlood(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Reset(make([]Program, 2)); err == nil {
		t.Error("mismatched program count accepted by Reset")
	}
}

// Simulator constructions are counted per runtime, so concurrent
// batches and parallel tests on other runtimes cannot perturb an
// assertion made against a private one.
func TestSimulatorsCreatedPerRuntime(t *testing.T) {
	rtA, rtB := sched.New(1), sched.New(1)
	defer rtA.Close()
	defer rtB.Close()
	if _, err := NewUniform(gen.Path(3), newFlood(0), Options{Runtime: rtA}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewUniform(gen.Path(3), newFlood(0), Options{Runtime: rtA}); err != nil {
		t.Fatal(err)
	}
	if got := rtA.SimulatorsCreated(); got != 2 {
		t.Errorf("runtime A counted %d simulators, want 2", got)
	}
	if got := rtB.SimulatorsCreated(); got != 0 {
		t.Errorf("runtime B counted %d simulators, want 0", got)
	}
}

// goroutinesSettle polls until the process goroutine count drops to at
// most want, tolerating unrelated runtime goroutines that exit
// asynchronously.
func goroutinesSettle(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A simulator owns no goroutines: its fanned-out rounds execute on the shared
// scheduler, which starts its workers once, survives any number of
// simulators and Resets, and dies with sched.Runtime.Close — the
// scheduler-lifecycle extension of the goroutine-leak regression guard.
func TestSchedulerLifecycleAcrossSimulators(t *testing.T) {
	// Force every round through the scheduler — the inline light-round
	// path never dispatches, so the workers would not be observable.
	defer SetInlineWorkCutoff(0)()
	g := gen.Grid(5, 5)
	base := runtime.NumGoroutine()
	rt := sched.New(3)
	runSim := func() {
		sim, err := NewUniform(g, newFlood(0), Options{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			sim.ResetUniform(newFlood(i))
			if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
				t.Fatal(err)
			}
		}
	}
	runSim()
	running := goroutinesSettle(t, base+3)
	if running <= base {
		t.Errorf("scheduler workers not observed: base %d, running %d", base, running)
	}
	if running > base+3 {
		t.Errorf("scheduler added more than its 3 workers: base %d, running %d", base, running)
	}
	// Many more simulators on the same runtime must not grow the pool.
	for i := 0; i < 4; i++ {
		runSim()
	}
	if after := goroutinesSettle(t, running); after > running {
		t.Errorf("goroutines grew across simulators on one runtime: %d -> %d", running, after)
	}
	rt.Close()
	if after := goroutinesSettle(t, base); after > base {
		t.Errorf("runtime Close leaked goroutines: base %d, after close %d", base, after)
	}
}
