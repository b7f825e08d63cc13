package protocols

import (
	"context"
	"strings"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/gen"
)

// A full protocol pipeline run as sessions on one persistent network
// must produce the same results and per-step costs as fresh simulators,
// on every engine.
func TestSessionsMatchFreshSimulators(t *testing.T) {
	g := gen.GNP(70, 0.1, 7, true)
	isCenter := func(v int) bool { return true }
	deg, delta := 5, int32(3)
	q, c := int32(2), 3

	// Reference: one fresh simulator per step (the pre-session world).
	refSim, err := congest.NewUniform(g, NewNearNeighbors(isCenter, deg, delta), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSim.Run(NearNeighborsRounds(deg, delta)); err != nil {
		t.Fatal(err)
	}
	refNN := ExtractNN(refSim)
	refNNMsgs := refSim.Metrics().Messages

	refSim2, err := congest.NewUniform(g, NewRulingSet(isCenter, q, c, g.N()), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSim2.Run(RulingSetRounds(q, c, g.N())); err != nil {
		t.Fatal(err)
	}
	refRS := ExtractRulingSet(refSim2)

	for _, eng := range congest.Engines() {
		net, err := NewNetwork(g, congest.Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		nn, nnRounds, err := RunNearNeighbors(context.Background(), net, 0, isCenter, deg, delta)
		if err != nil {
			t.Fatal(err)
		}
		if nnRounds != NearNeighborsRounds(deg, delta) {
			t.Errorf("%s: NN rounds %d, want budget %d", eng, nnRounds, NearNeighborsRounds(deg, delta))
		}
		for v := 0; v < g.N(); v++ {
			if nn.Popular[v] != refNN.Popular[v] || nn.Count(v) != refNN.Count(v) {
				t.Fatalf("%s: NN result differs at vertex %d", eng, v)
			}
		}
		rs, _, err := RunRulingSet(context.Background(), net, 0, isCenter, q, c, g.N())
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(refRS) {
			t.Fatalf("%s: ruling set size %d, fresh %d", eng, len(rs), len(refRS))
		}
		for i := range rs {
			if rs[i] != refRS[i] {
				t.Fatalf("%s: ruling set differs at %d: %d vs %d", eng, i, rs[i], refRS[i])
			}
		}
		forest, _, err := RunForest(context.Background(), net, 0, func(v int) bool { return v == 0 }, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := g.BFSBounded(0, 4)
		for v := 0; v < g.N(); v++ {
			if forest.Dist[v] >= 0 && forest.Dist[v] != want[v] {
				t.Errorf("%s: forest dist[%d]=%d, BFS %d", eng, v, forest.Dist[v], want[v])
			}
		}

		steps := net.Steps()
		if len(steps) != 3 {
			t.Fatalf("%s: %d step records, want 3", eng, len(steps))
		}
		if steps[0].Step != StepNearNeighbors || steps[0].Messages != refNNMsgs {
			t.Errorf("%s: NN step metrics %+v (fresh messages %d)", eng, steps[0], refNNMsgs)
		}
		if steps[1].Step != StepRulingSet || steps[2].Step != StepForest {
			t.Errorf("%s: step order wrong: %+v", eng, steps)
		}
	}
}

// A session whose schedule ends with its own messages still in flight
// must report the under-budget instead of leaking late messages into
// the next session.
func TestSessionReportsUnderBudgetSchedule(t *testing.T) {
	g := gen.Path(10)
	net, err := NewNetwork(g, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A depth-8 forest needs 8 rounds; cut it off after 3 with the wave
	// still travelling.
	err = net.Session(0, StepForest, kindForest).Run(
		context.Background(), NewBFSForest(func(v int) bool { return v == 0 }, 8), 3)
	if err == nil {
		t.Fatal("under-budgeted session finished without a violation")
	}
	if !strings.Contains(err.Error(), "under-budgeted") || !strings.Contains(err.Error(), StepForest) {
		t.Errorf("violation does not name the under-budget: %v", err)
	}
	if len(net.Steps()) != 0 {
		t.Error("violating session still recorded metrics")
	}
	// The network remains usable: the next session starts clean.
	if _, _, err := RunForest(context.Background(), net, 1, func(v int) bool { return v == 0 }, 9); err != nil {
		t.Errorf("network unusable after a reported violation: %v", err)
	}
}

// foreignSender emits a message under a kind outside its session's
// namespace in the final round, so it is still in flight at the session
// boundary.
type foreignSender struct{ kind uint8 }

func (p *foreignSender) Init(env *congest.Env) {}
func (p *foreignSender) Round(env *congest.Env, recv []congest.Inbound) {
	if env.ID() == 0 && env.Degree() > 0 {
		_ = env.Send(0, congest.Message{Kind: p.kind})
	}
}

func TestSessionReportsForeignKindTraffic(t *testing.T) {
	g := gen.Path(4)
	net, err := NewNetwork(g, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = net.Session(2, StepRulingSet, kindRulingWave).Run(
		context.Background(), func(v int) congest.Program { return &foreignSender{kind: kindClimb} }, 2)
	if err == nil {
		t.Fatal("foreign-kind traffic not reported")
	}
	if !strings.Contains(err.Error(), "kind namespace") {
		t.Errorf("violation does not name the namespace breach: %v", err)
	}
}

func TestRecordIdle(t *testing.T) {
	net, err := NewNetwork(gen.Path(3), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net.RecordIdle(4, StepRulingSet, 17)
	steps := net.Steps()
	if len(steps) != 1 || steps[0] != (StepMetrics{Phase: 4, Step: StepRulingSet, Rounds: 17}) {
		t.Errorf("RecordIdle stored %+v", steps)
	}
}
