package congest

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nearspan/internal/gen"
	"nearspan/internal/sched"
)

// A reused simulator must be indistinguishable from a fresh one: after
// Reset, a different protocol on the same topology produces bit-identical
// histories and metrics on every engine.
func TestResetMatchesFreshRun(t *testing.T) {
	g := gen.GNP(60, 0.08, 11, true)
	for _, opts := range []Options{
		{Engine: EngineSequential},
		{Engine: EngineParallel},
		{Engine: EngineParallel, Workers: 3},
	} {
		fresh, freshM := runGossip(t, g, opts, 12)

		sim, err := NewUniform(g, newFlood(0), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuiet(10 * g.N()); err != nil {
			t.Fatal(err)
		}
		sim.ResetUniform(func(v int) Program { return &gossipProg{horizon: 12} })
		if err := sim.Run(13); err != nil {
			t.Fatal(err)
		}
		if sim.Metrics() != freshM {
			t.Errorf("%s: reused metrics %+v, fresh %+v", opts.Engine, sim.Metrics(), freshM)
		}
		for v := 0; v < g.N(); v++ {
			got := sim.Program(v).(*gossipProg).history
			for r := range fresh[v] {
				if got[r] != fresh[v][r] {
					t.Errorf("%s vertex %d round %d: reused %d, fresh %d",
						opts.Engine, v, r, got[r], fresh[v][r])
				}
			}
		}
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
	if err := sim.Run(1); err == nil {
		t.Fatal("over-sender should violate bandwidth")
	}
	sim.ResetUniform(newFlood(0))
	// Interrupt the flood mid-flight: messages remain pending.
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	if total, byKind := sim.Pending(); total == 0 || byKind[kindToken] != total {
		t.Fatalf("expected pending flood tokens, got total=%d byKind=%v", total, byKind)
	}
	sim.ResetUniform(newFlood(0))
	if total, _ := sim.Pending(); total != 0 {
		t.Fatalf("Reset left %d messages pending", total)
	}
	if _, err := sim.RunUntilQuiet(100); err != nil {
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

// Reset must also clear a recorded program panic on the parallel
// engine: a caller that recovered the re-raised panic and Reset the
// simulator gets a clean run, not the previous run's panic replayed.
func TestResetClearsRecordedPanicParallel(t *testing.T) {
	g := gen.Grid(5, 5)
	sim, err := NewUniform(g, func(v int) Program { return &panicProg{boom: v == 2} },
		Options{Engine: EngineParallel})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("program panic was not re-raised")
			}
		}()
		_ = sim.Run(5)
	}()
	sim.ResetUniform(newFlood(0))
	if _, err := sim.RunUntilQuiet(10 * g.N()); err != nil {
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

// Reset must rewind the frontier machinery itself: the dirty-slot lists,
// the per-vertex outbound sublists, the inbox/mail state, and the active
// list all return to their pre-Init emptiness, so a reused simulator's
// O(activity) bookkeeping cannot leak traffic or wakes into the next
// protocol — and a rerun after the rewind is bit-identical to a fresh
// simulator's.
func TestResetRewindsDirtyLists(t *testing.T) {
	g := gen.GNP(40, 0.12, 9, true)
	newProg := func(v int) Program { return &fzProg{cfg: fzConfig{seed: 3}} }
	for _, opts := range []Options{
		{Engine: EngineSequential},
		{Engine: EngineParallel},
	} {
		// Fresh run for the comparison target.
		fresh, err := NewUniform(g, newProg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(8); err != nil {
			t.Fatal(err)
		}

		// Interrupt a run mid-flight so the dirty machinery is loaded.
		sim, err := NewUniform(g, newProg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3); err != nil {
			t.Fatal(err)
		}
		if len(sim.curDirty) == 0 && len(sim.curBcastL) == 0 {
			t.Fatalf("%s: workload left no messages in flight — weak test setup", opts.Engine)
		}
		sim.ResetUniform(newProg)
		if len(sim.curDirty) != 0 || len(sim.nxDirty) != 0 {
			t.Errorf("%s: Reset left dirty lists: cur %d, next %d",
				opts.Engine, len(sim.curDirty), len(sim.nxDirty))
		}
		if len(sim.active) != 0 || len(sim.frontier) != 0 || len(sim.mail) != 0 || len(sim.woken) != 0 {
			t.Errorf("%s: Reset left scheduling state: active %d frontier %d mail %d woken %d",
				opts.Engine, len(sim.active), len(sim.frontier), len(sim.mail), len(sim.woken))
		}
		if len(sim.curBcastL) != 0 || len(sim.nxBcastL) != 0 {
			t.Errorf("%s: Reset left broadcaster lists: cur %d, next %d",
				opts.Engine, len(sim.curBcastL), len(sim.nxBcastL))
		}
		logs := map[string]*sendLog{"seq": &sim.seqLog}
		if sim.par != nil {
			for i, st := range sim.par.shards {
				logs[fmt.Sprintf("shard-%d", i)] = &st.log
			}
		}
		for name, l := range logs {
			if len(l.dirty) != 0 || len(l.bcast) != 0 {
				t.Errorf("%s: Reset left %s send log (%d dirty, %d bcast)",
					opts.Engine, name, len(l.dirty), len(l.bcast))
			}
		}
		for v := range sim.inbox {
			if len(sim.inbox[v]) != 0 {
				t.Errorf("%s: Reset left vertex %d inbox (%d ports)", opts.Engine, v, len(sim.inbox[v]))
			}
		}
		if total, _ := sim.Pending(); total != 0 {
			t.Errorf("%s: Pending after Reset = %d", opts.Engine, total)
		}

		// The rewound simulator replays the fresh execution exactly.
		if err := sim.Run(8); err != nil {
			t.Fatal(err)
		}
		if sim.Metrics() != fresh.Metrics() {
			t.Errorf("%s: reused metrics %+v, fresh %+v", opts.Engine, sim.Metrics(), fresh.Metrics())
		}
		for v := 0; v < g.N(); v++ {
			got := sim.Program(v).(*fzProg)
			want := fresh.Program(v).(*fzProg)
			if got.transcript != want.transcript || got.invoked != want.invoked {
				t.Errorf("%s vertex %d: reused transcript %x/%d, fresh %x/%d",
					opts.Engine, v, got.transcript, got.invoked, want.transcript, want.invoked)
			}
		}
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

// EngineParallel owns no goroutines: its rounds execute on the shared
// scheduler, which starts its workers once, survives any number of
// simulators and Resets, and dies with sched.Runtime.Close — the
// scheduler-lifecycle extension of the goroutine-leak regression guard.
func TestSchedulerLifecycleAcrossSimulators(t *testing.T) {
	// Force every round through the scheduler — the inline small-frontier
	// path never dispatches, so the workers would not be observable.
	defer func(c int) { inlineFrontierCutoff = c }(inlineFrontierCutoff)
	inlineFrontierCutoff = 0
	g := gen.Grid(5, 5)
	base := runtime.NumGoroutine()
	rt := sched.New(3)
	runSim := func() {
		sim, err := NewUniform(g, newFlood(0), Options{Engine: EngineParallel, Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuiet(10 * g.N()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			sim.ResetUniform(newFlood(i))
			if _, err := sim.RunUntilQuiet(10 * g.N()); err != nil {
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
