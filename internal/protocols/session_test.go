package protocols

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/gen"
)

// A full protocol pipeline run as sessions on one persistent network
// must produce the same results and per-step costs as fresh simulators.
func TestSessionsMatchFreshSimulators(t *testing.T) {
	g := gen.GNP(70, 0.1, 7, true)
	isCenter := func(v int) bool { return true }
	deg, delta := 5, int32(3)
	q, c := int32(2), 3

	// Reference: one fresh simulator per step (the pre-session world).
	refSim, err := congest.NewUniform(g, NewNearNeighborsRec(isCenter, deg, delta, nil), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSim.RunContext(context.Background(), NearNeighborsRounds(deg, delta)); err != nil {
		t.Fatal(err)
	}
	refNN := ExtractNN(refSim)
	refNNMsgs := refSim.Metrics().Messages

	refSim2, err := congest.NewUniform(g, NewRulingSet(isCenter, q, c, g.N()), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSim2.RunContext(context.Background(), RulingSetRounds(q, c, g.N())); err != nil {
		t.Fatal(err)
	}
	refRS := ExtractRulingSet(refSim2)

	led := NewLedger(0, nil)
	net, err := NewNetwork(g, congest.Options{}, led)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := RunNearNeighborsRec(context.Background(), net, isCenter, deg, delta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := led.Steps()[0].Rounds; r != NearNeighborsRounds(deg, delta) {
		t.Errorf("NN rounds %d, want budget %d", r, NearNeighborsRounds(deg, delta))
	}
	for v := 0; v < g.N(); v++ {
		if nn.Popular[v] != refNN.Popular[v] || nn.Count(v) != refNN.Count(v) {
			t.Fatalf("NN result differs at vertex %d", v)
		}
	}
	rs, err := RunRulingSet(context.Background(), net, isCenter, q, c, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(refRS) {
		t.Fatalf("ruling set size %d, fresh %d", len(rs), len(refRS))
	}
	for i := range rs {
		if rs[i] != refRS[i] {
			t.Fatalf("ruling set differs at %d: %d vs %d", i, rs[i], refRS[i])
		}
	}
	forest, err := RunForest(context.Background(), net, func(v int) bool { return v == 0 }, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := g.BFSBounded(0, 4)
	for v := 0; v < g.N(); v++ {
		if forest.Dist[v] >= 0 && forest.Dist[v] != want[v] {
			t.Errorf("forest dist[%d]=%d, BFS %d", v, forest.Dist[v], want[v])
		}
	}

	steps := led.Steps()
	if len(steps) != 3 {
		t.Fatalf("%d step records, want 3", len(steps))
	}
	if steps[0].Step != StepNearNeighbors || steps[0].Messages != refNNMsgs {
		t.Errorf("NN step metrics %+v (fresh messages %d)", steps[0], refNNMsgs)
	}
	if steps[1].Step != StepRulingSet || steps[2].Step != StepForest {
		t.Errorf("step order wrong: %+v", steps)
	}
}

// A session whose schedule ends with its own messages still in flight
// must report the under-budget instead of leaking late messages into
// the next session.
func TestSessionReportsUnderBudgetSchedule(t *testing.T) {
	g := gen.Path(10)
	led := NewLedger(0, nil)
	net, err := NewNetwork(g, congest.Options{}, led)
	if err != nil {
		t.Fatal(err)
	}
	// A depth-8 forest needs 8 rounds; cut it off after 3 with the wave
	// still travelling.
	err = net.Session(StepForest, kindForest).Run(
		context.Background(), NewBFSForest(func(v int) bool { return v == 0 }, 8), 3)
	if err == nil {
		t.Fatal("under-budgeted session finished without a violation")
	}
	if !strings.Contains(err.Error(), "under-budgeted") || !strings.Contains(err.Error(), StepForest) {
		t.Errorf("violation does not name the under-budget: %v", err)
	}
	if len(led.Steps()) != 0 {
		t.Error("violating session still recorded metrics")
	}
	// The network remains usable: the next session starts clean.
	led.BeginPhase(1)
	if _, err := RunForest(context.Background(), net, func(v int) bool { return v == 0 }, 9); err != nil {
		t.Errorf("network unusable after a reported violation: %v", err)
	}
}

// foreignSender emits a message under a kind outside its session's
// namespace in the final round, so it is still in flight at the session
// boundary.
type foreignSender struct{ kind uint8 }

func (p *foreignSender) Init(env *congest.Env) {}
func (p *foreignSender) Round(env *congest.Env) {
	if env.ID() == 0 && env.Degree() > 0 {
		_ = env.Send(0, congest.Message{Kind: p.kind})
	}
}

func TestSessionReportsForeignKindTraffic(t *testing.T) {
	g := gen.Path(4)
	led := NewLedger(0, nil)
	net, err := NewNetwork(g, congest.Options{}, led)
	if err != nil {
		t.Fatal(err)
	}
	led.BeginPhase(2)
	err = net.Session(StepRulingSet, kindRulingWave).Run(
		context.Background(), func(v int) congest.Program { return &foreignSender{kind: kindClimb} }, 2)
	if err == nil {
		t.Fatal("foreign-kind traffic not reported")
	}
	if !strings.Contains(err.Error(), "kind namespace") {
		t.Errorf("violation does not name the namespace breach: %v", err)
	}
}

// Every record is charged against the budget — idle, replayed and
// executed alike — and a record that does not fit is neither appended
// nor streamed.
func TestLedgerChargesEveryRecord(t *testing.T) {
	var streamed []StepMetrics
	led := NewLedger(40, func(sm StepMetrics) { streamed = append(streamed, sm) })
	led.BeginPhase(4)
	if err := led.Record(StepMetrics{Step: StepRulingSet, Rounds: 17}); err != nil {
		t.Fatal(err)
	}
	if steps := led.Steps(); len(steps) != 1 || steps[0] != (StepMetrics{Phase: 4, Step: StepRulingSet, Rounds: 17}) {
		t.Errorf("idle record stored %+v", steps)
	}
	if err := led.Record(StepMetrics{Step: StepNearNeighbors, Rounds: 13, Replayed: true}); err != nil {
		t.Fatal(err)
	}

	// An executed session charges its measured rounds: 30 of 40 are
	// spent, so a 12-round schedule runs 10 rounds and is cut.
	net, err := NewNetwork(gen.Path(20), congest.Options{}, led)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunForest(context.Background(), net, func(v int) bool { return v == 0 }, 12)
	var be *congest.ErrBudgetExhausted
	if !errors.As(err, &be) || be.MaxRounds != 40 {
		t.Fatalf("over-budget session: err = %v, want *ErrBudgetExhausted{MaxRounds: 40}", err)
	}
	if be.Pending <= 0 {
		t.Errorf("cut session carries no live histogram: %+v", be)
	}
	if _, err := RunForest(context.Background(), net, func(v int) bool { return v == 0 }, 10); err != nil {
		t.Fatalf("session fitting the remaining 10 rounds: %v", err)
	}

	// The budget is spent: a 1-round idle record no longer fits, a
	// 0-round one still does.
	err = led.Record(StepMetrics{Step: StepForest, Rounds: 1})
	if !errors.As(err, &be) || be.MaxRounds != 40 {
		t.Fatalf("over-budget record: err = %v, want *ErrBudgetExhausted{MaxRounds: 40}", err)
	}
	if err := led.Record(StepMetrics{Step: StepInterconnect}); err != nil {
		t.Fatalf("zero-round record over a spent budget: %v", err)
	}

	steps := led.Steps()
	want := []struct {
		step   string
		rounds int
	}{{StepRulingSet, 17}, {StepNearNeighbors, 13}, {StepForest, 10}, {StepInterconnect, 0}}
	if len(steps) != len(want) {
		t.Fatalf("ledger holds %d records, want %d: %+v", len(steps), len(want), steps)
	}
	total := 0
	for i, w := range want {
		if steps[i].Step != w.step || steps[i].Rounds != w.rounds || steps[i].Phase != 4 {
			t.Errorf("record %d: %+v, want phase 4 %s %d rounds", i, steps[i], w.step, w.rounds)
		}
		if streamed[i] != steps[i] {
			t.Errorf("record %d: streamed %+v, stored %+v", i, streamed[i], steps[i])
		}
		total += steps[i].Rounds
	}
	if len(streamed) != len(steps) {
		t.Errorf("OnStep fired %d times for %d records", len(streamed), len(steps))
	}
	if total != 40 {
		t.Errorf("recorded rounds sum to %d, want the whole budget 40", total)
	}
}
