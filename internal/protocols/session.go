package protocols

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"nearspan/internal/congest"
	"nearspan/internal/edgeset"
	"nearspan/internal/graph"
)

// Step names, one per protocol step of the construction. They key the
// per-step metrics and identify sessions in violation reports.
const (
	StepNearNeighbors = "near-neighbors"
	StepRulingSet     = "ruling-set"
	StepForest        = "forest"
	StepForestPaths   = "forest-paths"
	StepInterconnect  = "interconnect"
)

// StepMetrics records one protocol session's execution on the shared
// network: which phase and step it was, and what it cost. Rounds for
// fixed-schedule protocols equal the protocol's budget; for
// message-driven climbs they are measured.
type StepMetrics struct {
	Phase           int
	Step            string
	Rounds          int
	Messages        int64
	MaxRoundTraffic int64

	// Replayed marks a step whose output the delta-rebuild engine
	// spliced from a previous build's state instead of re-running the
	// protocol. Replayed steps still report their schedule rounds (a
	// rebuilt job fits the same per-job round cap as a full build) but
	// moved no messages.
	Replayed bool
}

// Network is a persistent CONGEST runtime: one simulator constructed
// once per topology and reused — via congest.Reset — by every protocol
// session run on it. The paper's construction is a sequence of
// protocols on the same graph (ℓ phases × 4 steps); constructing a
// simulator per step would reallocate the O(m·Bandwidth) message
// arenas and the twin table every time. A Network pays those costs
// once and additionally keeps the per-step metrics stream the per-phase
// accounting is built from. It owns no goroutines: the parallel engine
// executes on the shared runtime, whose lifecycle is independent of any
// one network.
type Network struct {
	sim    *congest.Simulator
	steps  []StepMetrics
	onStep func(StepMetrics)

	// budget, when positive, bounds the total simulated rounds executed
	// across every session on this network; used tracks consumption.
	// Idle records consume nothing — the budget is an execution bound,
	// not a schedule bound.
	budget int
	used   int
}

// idleProgram occupies vertices of a freshly created network before the
// first session attaches.
type idleProgram struct{}

func (idleProgram) Init(env *congest.Env)                          { env.Halt() }
func (idleProgram) Round(env *congest.Env, recv []congest.Inbound) { env.Halt() }

// NewNetwork constructs the persistent simulator for g.
func NewNetwork(g *graph.Graph, opts congest.Options) (*Network, error) {
	sim, err := congest.NewUniform(g, func(int) congest.Program { return idleProgram{} }, opts)
	if err != nil {
		return nil, err
	}
	return &Network{sim: sim}, nil
}

// Sim exposes the underlying simulator for result extraction between
// sessions. The programs it holds are those of the most recent session.
func (n *Network) Sim() *congest.Simulator { return n.sim }

// Graph returns the network topology.
func (n *Network) Graph() *graph.Graph { return n.sim.Graph() }

// Steps returns the metrics of every session run so far, in order.
func (n *Network) Steps() []StepMetrics { return n.steps }

// SetRoundBudget bounds the total simulated rounds the network may
// execute across all of its sessions; 0 (the default) means unlimited.
// A session whose schedule does not fit in the remaining budget runs
// only the remaining rounds and then fails with a wrapped
// *congest.ErrBudgetExhausted carrying the live pending-message
// histogram — the per-job round-budget enforcement point of the service
// layer. The cut lands at a round boundary, so an exhausted build can
// never emit a partial result (its error aborts the construction).
func (n *Network) SetRoundBudget(rounds int) { n.budget = rounds }

// RoundsUsed returns the simulated rounds executed so far across all
// sessions on this network.
func (n *Network) RoundsUsed() int { return n.used }

// remaining returns the rounds still executable under the budget, or
// math.MaxInt when no budget is set.
func (n *Network) remaining() int {
	if n.budget <= 0 {
		return math.MaxInt
	}
	if rem := n.budget - n.used; rem > 0 {
		return rem
	}
	return 0
}

// SetOnStep installs a progress callback invoked synchronously with each
// recorded step metric (including idle records), in execution order. It
// is the hook behind per-build progress reporting; the callback must not
// call back into the network.
func (n *Network) SetOnStep(fn func(StepMetrics)) { n.onStep = fn }

func (n *Network) record(sm StepMetrics) {
	n.steps = append(n.steps, sm)
	if n.onStep != nil {
		n.onStep(sm)
	}
}

// RecordIdle appends a zero-cost metrics entry for a step that was
// statically known to move no messages (e.g. an empty center set): the
// schedule still charges its round budget, but no simulation ran.
func (n *Network) RecordIdle(phase int, step string, rounds int) {
	n.record(StepMetrics{Phase: phase, Step: step, Rounds: rounds})
}

// RecordReplayed appends a metrics entry for a step whose output the
// delta rebuild spliced from a previous build. Unlike RecordIdle it
// charges the step's schedule rounds against the network's round budget
// — a rebuilt job must fit the same per-job round cap as a full build —
// and fails with *congest.ErrBudgetExhausted when they do not fit.
func (n *Network) RecordReplayed(phase int, step string, rounds int) error {
	if rem := n.remaining(); rounds > rem {
		n.used += rem
		return fmt.Errorf("protocols: %s step (phase %d, replayed): %w", step, phase,
			&congest.ErrBudgetExhausted{MaxRounds: n.budget})
	}
	n.used += rounds
	n.record(StepMetrics{Phase: phase, Step: step, Rounds: rounds, Replayed: true})
	return nil
}

// Session is one protocol run attached to the network. Each session
// owns a message-kind namespace: after its rounds complete, any message
// still in flight is a model violation — its own kind means the
// protocol under-ran its schedule and would have leaked late messages
// into the next session, a foreign kind means the protocol sent traffic
// outside its namespace. Either way the session reports it at its own
// boundary instead of letting the next protocol silently misread stale
// messages (the next session's Reset would otherwise just drop them).
type Session struct {
	net   *Network
	phase int
	step  string
	kind  uint8
}

// Session starts a session for the given construction phase and step.
// kind is the message kind the step's protocol owns.
func (n *Network) Session(phase int, step string, kind uint8) *Session {
	return &Session{net: n, phase: phase, step: step, kind: kind}
}

// Run attaches factory's programs to the network and executes exactly
// rounds rounds, recording the step metrics. Cancelling the context
// aborts the session at a round boundary with ctx.Err() (wrapped); no
// metrics are recorded for an aborted session. If the network's round
// budget cannot cover the schedule, the session runs only the remaining
// rounds and fails with a wrapped *congest.ErrBudgetExhausted.
func (s *Session) Run(ctx context.Context, factory func(v int) congest.Program, rounds int) error {
	s.net.sim.ResetUniform(factory)
	rem := s.net.remaining()
	run := min(rounds, rem)
	err := s.net.sim.RunContext(ctx, run)
	s.net.used += s.net.sim.Metrics().Rounds
	if err != nil {
		return fmt.Errorf("protocols: %s session (phase %d): %w", s.step, s.phase, err)
	}
	if run < rounds {
		return fmt.Errorf("protocols: %s session (phase %d): %w", s.step, s.phase, s.budgetExhausted())
	}
	return s.finish()
}

// RunUntilQuiet attaches factory's programs and executes until
// quiescence (at most maxRounds, further capped by the network's round
// budget), returning the measured round count. An exhausted budget —
// the protocol's own or the network's — surfaces as a wrapped
// *congest.ErrBudgetExhausted carrying the pending-message histogram.
func (s *Session) RunUntilQuiet(ctx context.Context, factory func(v int) congest.Program, maxRounds int) (int, error) {
	s.net.sim.ResetUniform(factory)
	rem := s.net.remaining()
	capped := min(maxRounds, rem)
	rounds, err := s.net.sim.RunUntilQuietContext(ctx, capped)
	s.net.used += rounds
	if err != nil {
		var be *congest.ErrBudgetExhausted
		if errors.As(err, &be) && capped < maxRounds {
			// The network budget, not the protocol's own cap, cut the run.
			be.MaxRounds = s.net.budget
		}
		return rounds, fmt.Errorf("protocols: %s session (phase %d): %w", s.step, s.phase, err)
	}
	return rounds, s.finish()
}

// budgetExhausted builds the typed budget error from the simulator's
// live state: the in-flight histogram at the cut plus the still-active
// vertex count, attributed to the network's total budget.
func (s *Session) budgetExhausted() *congest.ErrBudgetExhausted {
	total, byKind := s.net.sim.Pending()
	return &congest.ErrBudgetExhausted{
		MaxRounds: s.net.budget,
		Pending:   total,
		ByKind:    byKind,
		Active:    s.net.sim.Active(),
	}
}

// finish verifies the session's kind namespace is clean and records its
// metrics.
func (s *Session) finish() error {
	if total, byKind := s.net.sim.Pending(); total > 0 {
		kinds := slices.Sorted(maps.Keys(byKind))
		own := byKind[s.kind]
		if foreign := total - own; foreign > 0 {
			return fmt.Errorf("protocols: %s session (phase %d): %d stray message(s) of kinds %v in flight after %d rounds — traffic outside the session's kind namespace (%d)",
				s.step, s.phase, foreign, kinds, s.net.sim.Round(), s.kind)
		}
		return fmt.Errorf("protocols: %s session (phase %d): %d message(s) of own kind %d still in flight after %d rounds — schedule under-budgeted",
			s.step, s.phase, own, s.kind, s.net.sim.Round())
	}
	m := s.net.sim.Metrics()
	s.net.record(StepMetrics{
		Phase:           s.phase,
		Step:            s.step,
		Rounds:          m.Rounds,
		Messages:        m.Messages,
		MaxRoundTraffic: m.MaxRoundTraffic,
	})
	return nil
}

// The per-step session runners below are the distributed faces of the
// construction's four protocol steps: each attaches its protocol to the
// persistent network as one session and extracts the result. They
// mirror the Central* oracles, which compute identical outputs without
// round machinery.

// RunNearNeighbors executes Algorithm 1 (popularity detection) as a
// session and returns the per-vertex result plus the consumed rounds.
func RunNearNeighbors(ctx context.Context, net *Network, phase int, isCenter func(v int) bool, deg int, delta int32) (NNResult, int, error) {
	return RunNearNeighborsRec(ctx, net, phase, isCenter, deg, delta, nil)
}

// RunNearNeighborsRec is RunNearNeighbors with optional forward-
// transcript recording: when rec is non-nil, every vertex's per-phase
// forward selections are recorded into it (the caller finishes the
// recorder). Recording does not change the protocol's traffic or result.
func RunNearNeighborsRec(ctx context.Context, net *Network, phase int, isCenter func(v int) bool, deg int, delta int32, rec *TranscriptRecorder) (NNResult, int, error) {
	rounds := NearNeighborsRounds(deg, delta)
	if err := net.Session(phase, StepNearNeighbors, kindNN).Run(ctx, NewNearNeighborsRec(isCenter, deg, delta, rec), rounds); err != nil {
		return NNResult{}, 0, err
	}
	return ExtractNN(net.sim), rounds, nil
}

// RunRulingSet executes the deterministic ruling-set protocol as a
// session and returns the selected set plus the consumed rounds.
func RunRulingSet(ctx context.Context, net *Network, phase int, isMember func(v int) bool, q int32, c, n int) ([]int, int, error) {
	rounds := RulingSetRounds(q, c, n)
	if err := net.Session(phase, StepRulingSet, kindRulingWave).Run(ctx, NewRulingSet(isMember, q, c, n), rounds); err != nil {
		return nil, 0, err
	}
	return ExtractRulingSet(net.sim), rounds, nil
}

// RunForest grows the bounded-depth BFS forest as a session and returns
// the per-vertex adoption state plus the consumed rounds.
func RunForest(ctx context.Context, net *Network, phase int, isRoot func(v int) bool, depth int32) (ForestResult, int, error) {
	rounds := ForestRounds(depth)
	if err := net.Session(phase, StepForest, kindForest).Run(ctx, NewBFSForest(isRoot, depth), rounds); err != nil {
		return ForestResult{}, 0, err
	}
	return ExtractForest(net.sim), rounds, nil
}

// RunClimb traces paths through the routing plane as a message-driven
// session (step names the use: forest paths or interconnection), adding
// the marked edges into the given set; it returns how many were new to
// the set plus the measured rounds. The construction passes the spanner
// accumulator directly, so the new-edge count is the step's contribution
// to |E_H|.
func RunClimb(ctx context.Context, net *Network, phase int, step string, rt *Routing, start [][]int64, keysPerVertex, pathLen int, into *edgeset.Set) (int, int, error) {
	rounds, err := net.Session(phase, step, kindClimb).RunUntilQuiet(
		ctx, NewClimb(rt, start), ClimbMaxRounds(keysPerVertex, pathLen))
	if err != nil {
		return 0, 0, err
	}
	return ExtractClimbEdges(net.sim, into), rounds, nil
}
