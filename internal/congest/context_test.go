package congest

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nearspan/internal/gen"
)

// chatterProg broadcasts every round and never halts — the stuck
// protocol shape: RunUntilQuietContext can never quiesce on it.
type chatterProg struct{ kind uint8 }

func (p *chatterProg) Init(env *Env) { _ = env.Broadcast(Message{Kind: p.kind}) }
func (p *chatterProg) Round(env *Env) {
	_ = env.Broadcast(Message{Kind: p.kind})
}

// A pre-cancelled context aborts before Init: zero rounds run and the
// error is exactly ctx.Err().
func TestRunContextPreCancelled(t *testing.T) {
	g := gen.Path(6)
	sim, err := NewUniform(g, newFlood(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.RunContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if sim.Round() != 0 {
		t.Errorf("pre-cancelled run executed %d rounds", sim.Round())
	}
	if _, err := sim.RunUntilQuietContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Error("RunUntilQuietContext ignored the cancelled context")
	}
}

// Cancellation mid-run lands at a round boundary: the round that
// observes the cancel completes, and not one more runs — on every
// schedule, including rounds fanned out to the shared runtime.
func TestRunContextCancelsWithinOneRound(t *testing.T) {
	g := gen.Grid(6, 6)
	for name, sc := range schedules() {
		t.Run(name, func(t *testing.T) {
			defer sc.force()()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const cancelRound = 5
			progs := make([]Program, g.N())
			for v := range progs {
				progs[v] = &cancelerProg{cancel: cancel, at: cancelRound, me: v == 0}
			}
			sim, err := New(g, progs, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = sim.RunContext(ctx, 100)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled", err)
			}
			if got := sim.Round(); got != cancelRound {
				t.Errorf("cancelled at round %d but %d rounds ran — not within one round", cancelRound, got)
			}
			// Determinism after cancellation: the simulator resets cleanly.
			sim.ResetUniform(newFlood(0))
			if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
				t.Errorf("simulator unusable after cancelled run: %v", err)
			}
		})
	}
}

// cancelerProg chats every round and cancels the build's context during
// round `at` (only vertex 0 cancels, so the trigger round is exact).
type cancelerProg struct {
	cancel context.CancelFunc
	at     int
	me     bool
}

func (p *cancelerProg) Init(env *Env) { _ = env.Broadcast(Message{Kind: 7}) }
func (p *cancelerProg) Round(env *Env) {
	if p.me && env.Round() == p.at {
		p.cancel()
	}
	_ = env.Broadcast(Message{Kind: 7})
}

// An exhausted RunUntilQuietContext budget surfaces as a typed
// *ErrBudgetExhausted carrying the pending-kind histogram — the
// stuck-climb diagnosis without a debugger.
func TestRunUntilQuietBudgetExhausted(t *testing.T) {
	g := gen.Grid(4, 4)
	const kind = 9
	sim, err := NewUniform(g, func(v int) Program { return &chatterProg{kind: kind} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := sim.RunUntilQuietContext(context.Background(), 3)
	if err == nil {
		t.Fatal("budget exhaustion not reported")
	}
	if rounds != 3 {
		t.Errorf("ran %d rounds, want the full budget 3", rounds)
	}
	var be *ErrBudgetExhausted
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not *ErrBudgetExhausted: %v", err, err)
	}
	if be.MaxRounds != 3 {
		t.Errorf("MaxRounds = %d, want 3", be.MaxRounds)
	}
	// Every vertex broadcast in the final round: 2m messages pending,
	// all of the chatter kind, and every vertex still active.
	if be.Pending != 2*g.M() || be.ByKind[kind] != be.Pending {
		t.Errorf("histogram {total %d, kind %d: %d}, want all %d of kind %d",
			be.Pending, kind, be.ByKind[kind], 2*g.M(), kind)
	}
	if be.Active != g.N() {
		t.Errorf("Active = %d, want %d", be.Active, g.N())
	}
	for _, want := range []string{"budget 3 exhausted", "kind 9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// A run that quiesces inside its budget still returns nil (the typed
// error fires only on genuine exhaustion).
func TestRunUntilQuietWithinBudgetStillNil(t *testing.T) {
	g := gen.Path(8)
	sim, err := NewUniform(g, newFlood(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunUntilQuietContext(context.Background(), 10*g.N()); err != nil {
		t.Fatalf("quiescent run errored: %v", err)
	}
}
