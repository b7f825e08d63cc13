package congest_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/sched"
)

// TestEnginesMatchOnBuildShape runs the full distributed construction
// at the size where the parallel engine's fan-out engages: the spannerd
// benchmark's build shape (GNP-2048, mean degree 20, ε=1/3, κ=3,
// ρ=0.49), whose dense near-neighbors rounds carry far more traffic
// than the cutoff. The sequential engine and the parallel engine — with
// the default two workers, with seven, and with the fan-out rule forced
// to dispatch every round and to dispatch none — must agree on the
// spanner, the rounds, the messages, the step stream and the arena.
func TestEnginesMatchOnBuildShape(t *testing.T) {
	g := gen.GNP(2048, 20.0/2047, 7, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	build := func(eng congest.Engine, rt *sched.Runtime) *core.Result {
		t.Helper()
		res, err := core.Build(context.Background(), g, p,
			core.Options{Mode: core.ModeDistributed, Engine: eng, Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	two, seven := sched.New(2), sched.New(7)
	defer two.Close()
	defer seven.Close()

	want := build(congest.EngineSequential, two)
	var traffic int64
	for _, st := range want.Steps {
		traffic = max(traffic, st.MaxRoundTraffic)
	}
	if !congest.FansOut(0, int(traffic)) {
		t.Fatalf("busiest round carries %d messages: the default rule fans out no round of this shape", traffic)
	}
	runs := map[string]func() *core.Result{
		"parallel":    func() *core.Result { return build(congest.EngineParallel, two) },
		"parallel-w7": func() *core.Result { return build(congest.EngineParallel, seven) },
		"parallel-all-dispatched": func() *core.Result {
			defer congest.SetInlineWorkCutoff(0)()
			return build(congest.EngineParallel, two)
		},
		"parallel-all-inline": func() *core.Result {
			defer congest.SetInlineWorkCutoff(math.MaxInt)()
			return build(congest.EngineParallel, two)
		},
	}
	_, wantHash := graph.Fingerprint(want.Spanner)
	for name, run := range runs {
		got := run()
		if _, hash := graph.Fingerprint(got.Spanner); hash != wantHash {
			t.Errorf("%s: spanner fingerprint %s, sequential %s", name, hash, wantHash)
		}
		if got.TotalRounds != want.TotalRounds || got.Messages != want.Messages {
			t.Errorf("%s: (rounds, messages) = (%d, %d), sequential (%d, %d)",
				name, got.TotalRounds, got.Messages, want.TotalRounds, want.Messages)
		}
		if !slices.Equal(got.Steps, want.Steps) {
			t.Errorf("%s: step stream differs from the sequential engine's", name)
		}
		if got.ArenaBytes != want.ArenaBytes {
			t.Errorf("%s: ArenaBytes %d, sequential %d", name, got.ArenaBytes, want.ArenaBytes)
		}
	}
}
