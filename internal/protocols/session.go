package protocols

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"nearspan/internal/congest"
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

// StepMetrics records one protocol step of a construction: which phase
// and step it was, and what it cost. Rounds for fixed-schedule
// protocols equal the protocol's schedule; for message-driven climbs
// they are measured (and zero in the centralized mode).
type StepMetrics struct {
	Phase           int
	Step            string
	Rounds          int
	Messages        int64
	MaxRoundTraffic int64
	// Invocations counts the step's program calls (congest.Metrics):
	// the work a round schedule costs beyond its messages.
	Invocations int64

	// Replayed marks a step whose output the delta-rebuild engine
	// spliced from a previous build's state instead of re-running the
	// protocol: every near-neighbors step of a core.Rebuild, and no
	// other. Replayed steps still report their schedule rounds (a
	// rebuilt job fits the same per-job round cap as a full build) but
	// moved no messages.
	Replayed bool
}

// Ledger is the one recording point of a construction's step stream:
// every step record — executed, idle, replayed or centralized — goes
// through Record, which charges the step's rounds against the round
// budget, appends the metrics and streams them to the OnStep callback.
// It also holds the current phase, which stamps every record. The paper's
// steps run on a fixed schedule all vertices know (§1.3.1), so a step
// spends its rounds whether or not a message flows; charging every
// recorded step makes a build succeed under budget b exactly when the
// sum of its step rounds is at most b.
type Ledger struct {
	steps  []StepMetrics
	onStep func(StepMetrics)
	budget int // 0 means unlimited
	used   int
	phase  int
}

// NewLedger returns a ledger bounding the total recorded rounds by
// budget (0 means unlimited) and streaming every record to onStep (nil
// means none). onStep runs synchronously, in record order, and must not
// call back into the ledger.
func NewLedger(budget int, onStep func(StepMetrics)) *Ledger {
	return &Ledger{budget: budget, onStep: onStep}
}

// BeginPhase sets the phase stamped on subsequent records.
func (l *Ledger) BeginPhase(i int) { l.phase = i }

// Steps returns every recorded step, in order.
func (l *Ledger) Steps() []StepMetrics { return l.steps }

// remaining returns the rounds still available under the budget, or
// math.MaxInt when no budget is set.
func (l *Ledger) remaining() int {
	if l.budget <= 0 {
		return math.MaxInt
	}
	return max(l.budget-l.used, 0)
}

// exhausted attributes a budget cut to the ledger's budget.
func (l *Ledger) exhausted(be *congest.ErrBudgetExhausted) *congest.ErrBudgetExhausted {
	be.MaxRounds = l.budget
	return be
}

// Record stamps sm with the current phase and appends it, charging its
// rounds. A step whose rounds do not fit in the remaining budget is not
// recorded and not streamed; Record then fails with a wrapped
// *congest.ErrBudgetExhausted.
func (l *Ledger) Record(sm StepMetrics) error {
	if sm.Rounds > l.remaining() {
		return fmt.Errorf("protocols: %s step (phase %d): %w", sm.Step, l.phase,
			l.exhausted(&congest.ErrBudgetExhausted{}))
	}
	sm.Phase = l.phase
	l.used += sm.Rounds
	l.steps = append(l.steps, sm)
	if l.onStep != nil {
		l.onStep(sm)
	}
	return nil
}

// Network is a persistent CONGEST runtime: one simulator constructed
// once per topology and reused — via congest.Reset — by every protocol
// session run on it. The paper's construction is a sequence of
// protocols on the same graph (ℓ phases × 4 steps); constructing a
// simulator per step would reallocate the O(m) message arenas and the
// twin table every time. A Network pays those costs once; its sessions
// record into the construction's Ledger, whose round budget caps every
// session. It owns no goroutines: fanned-out rounds execute on the
// shared runtime, whose lifecycle is independent of any one network.
type Network struct {
	sim    *congest.Simulator
	ledger *Ledger
}

// idleProgram occupies vertices of a freshly created network before the
// first session attaches.
type idleProgram struct{}

func (idleProgram) Init(env *congest.Env)  { env.Halt() }
func (idleProgram) Round(env *congest.Env) { env.Halt() }

// NewNetwork constructs the persistent simulator for g; its sessions
// record into ledger.
func NewNetwork(g *graph.Graph, opts congest.Options, ledger *Ledger) (*Network, error) {
	sim, err := congest.NewUniform(g, func(int) congest.Program { return idleProgram{} }, opts)
	if err != nil {
		return nil, err
	}
	return &Network{sim: sim, ledger: ledger}, nil
}

// Sim exposes the underlying simulator for result extraction between
// sessions. The programs it holds are those of the most recent session.
func (n *Network) Sim() *congest.Simulator { return n.sim }

// Session is one protocol run attached to the network. Each session
// owns a message-kind namespace: after its rounds complete, any message
// still in flight is a model violation — its own kind means the
// protocol under-ran its schedule and would have leaked late messages
// into the next session, a foreign kind means the protocol sent traffic
// outside its namespace. Either way the session reports it at its own
// boundary instead of letting the next protocol silently misread stale
// messages (the next session's Reset would otherwise just drop them).
type Session struct {
	net  *Network
	step string
	kind uint8
}

// Session starts a session for the given step in the ledger's current
// phase. kind is the message kind the step's protocol owns.
func (n *Network) Session(step string, kind uint8) *Session {
	return &Session{net: n, step: step, kind: kind}
}

// Run attaches factory's programs to the network and executes exactly
// rounds rounds, recording the step. Cancelling the context aborts the
// session at a round boundary with ctx.Err() (wrapped); no metrics are
// recorded for an aborted session. If the ledger's remaining budget
// cannot cover the schedule, the session runs only the remaining rounds
// and fails with a wrapped *congest.ErrBudgetExhausted carrying the live
// pending-message histogram. The cut lands at a round boundary, so an
// exhausted build never emits a partial result.
func (s *Session) Run(ctx context.Context, factory func(v int) congest.Program, rounds int) error {
	s.net.sim.ResetUniform(factory)
	run := min(rounds, s.net.ledger.remaining())
	if err := s.net.sim.RunContext(ctx, run); err != nil {
		return s.wrap(err)
	}
	if run < rounds {
		total, byKind := s.net.sim.Pending()
		return s.wrap(s.net.ledger.exhausted(&congest.ErrBudgetExhausted{
			Pending: total,
			ByKind:  byKind,
			Active:  s.net.sim.Active(),
		}))
	}
	return s.finish()
}

// RunUntilQuiet attaches factory's programs and executes until
// quiescence (at most maxRounds, further capped by the ledger's
// remaining budget), recording the measured round count. An exhausted
// budget — the protocol's own or the ledger's — surfaces as a wrapped
// *congest.ErrBudgetExhausted carrying the pending-message histogram.
func (s *Session) RunUntilQuiet(ctx context.Context, factory func(v int) congest.Program, maxRounds int) error {
	s.net.sim.ResetUniform(factory)
	capped := min(maxRounds, s.net.ledger.remaining())
	if _, err := s.net.sim.RunUntilQuietContext(ctx, capped); err != nil {
		var be *congest.ErrBudgetExhausted
		if errors.As(err, &be) && capped < maxRounds {
			// The ledger's budget, not the protocol's own cap, cut the run.
			s.net.ledger.exhausted(be)
		}
		return s.wrap(err)
	}
	return s.finish()
}

func (s *Session) wrap(err error) error {
	return fmt.Errorf("protocols: %s session (phase %d): %w", s.step, s.net.ledger.phase, err)
}

// finish verifies the session's kind namespace is clean and records its
// metrics.
func (s *Session) finish() error {
	if total, byKind := s.net.sim.Pending(); total > 0 {
		kinds := slices.Sorted(maps.Keys(byKind))
		own := byKind[s.kind]
		if foreign := total - own; foreign > 0 {
			return s.wrap(fmt.Errorf("%d stray message(s) of kinds %v in flight after %d rounds — traffic outside the session's kind namespace (%d)",
				foreign, kinds, s.net.sim.Round(), s.kind))
		}
		return s.wrap(fmt.Errorf("%d message(s) of own kind %d still in flight after %d rounds — schedule under-budgeted",
			own, s.kind, s.net.sim.Round()))
	}
	m := s.net.sim.Metrics()
	return s.net.ledger.Record(StepMetrics{
		Step:            s.step,
		Rounds:          m.Rounds,
		Messages:        m.Messages,
		MaxRoundTraffic: m.MaxRoundTraffic,
		Invocations:     m.Invocations,
	})
}

// The per-step session runners below are the distributed faces of the
// construction's four protocol steps: each attaches its protocol to the
// persistent network as one session in the ledger's current phase and
// extracts the result; the step's rounds are in the ledger. They mirror
// the Central* oracles, which compute identical outputs without round
// machinery.

// RunNearNeighborsRec executes Algorithm 1 (popularity detection) as a
// session and returns the per-vertex result. When rec is non-nil, every
// vertex's per-phase forward selections are recorded into it (the
// caller finishes the recorder). Recording does not change the
// protocol's traffic or result.
func RunNearNeighborsRec(ctx context.Context, net *Network, isCenter func(v int) bool, deg int, delta int32, rec *TranscriptRecorder) (NNResult, error) {
	if err := net.Session(StepNearNeighbors, kindNN).Run(ctx, NewNearNeighborsRec(isCenter, deg, delta, rec), NearNeighborsRounds(deg, delta)); err != nil {
		return NNResult{}, err
	}
	return ExtractNN(net.sim), nil
}

// RunRulingSet executes the deterministic ruling-set protocol as a
// session and returns the selected set.
func RunRulingSet(ctx context.Context, net *Network, isMember func(v int) bool, q int32, c, n int) ([]int, error) {
	if err := net.Session(StepRulingSet, kindRulingWave).Run(ctx, NewRulingSet(isMember, q, c, n), RulingSetRounds(q, c, n)); err != nil {
		return nil, err
	}
	return ExtractRulingSet(net.sim), nil
}

// RunForest grows the bounded-depth BFS forest as a session and returns
// the per-vertex adoption state.
func RunForest(ctx context.Context, net *Network, isRoot func(v int) bool, depth int32) (ForestResult, error) {
	if err := net.Session(StepForest, kindForest).Run(ctx, NewBFSForest(isRoot, depth), ForestRounds(depth)); err != nil {
		return ForestResult{}, err
	}
	return ExtractForest(net.sim), nil
}

// RunClimb traces paths through the routing plane as a message-driven
// session (step names the use: forest paths or interconnection), adding
// the marked edges into the given set; it returns how many were new to
// the set. The construction passes the spanner accumulator directly, so
// the new-edge count is the step's contribution to |E_H|.
func RunClimb(ctx context.Context, net *Network, step string, rt *Routing, start [][]int64, keysPerVertex, pathLen int, into *graph.Builder) (int, error) {
	if err := net.Session(step, kindClimb).RunUntilQuiet(ctx, NewClimb(rt, start), ClimbMaxRounds(keysPerVertex, pathLen)); err != nil {
		return 0, err
	}
	return ExtractClimbEdges(net.sim, into), nil
}
