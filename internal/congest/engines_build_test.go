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
// at the size where the fan-out engages: the spannerd benchmark's build
// shape (GNP-2048, mean degree 20, ε=1/3, κ=3, ρ=0.49), whose dense
// near-neighbors rounds carry far more traffic than the cutoff. The
// reference runs every round inline; the default fan-out rule on
// runtimes of 1, 2 and 7 workers, and every round dispatched, must agree
// with it on the spanner, the rounds, the messages, the program
// invocations, the step stream and the arena.
func TestEnginesMatchOnBuildShape(t *testing.T) {
	g := gen.GNP(2048, 20.0/2047, 7, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	build := func(rt *sched.Runtime) *core.Result {
		t.Helper()
		res, err := core.Build(context.Background(), g, p,
			core.Options{Mode: core.ModeDistributed, Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, two, seven := sched.New(1), sched.New(2), sched.New(7)
	defer one.Close()
	defer two.Close()
	defer seven.Close()

	want := func() *core.Result {
		defer congest.SetInlineWorkCutoff(math.MaxInt)()
		return build(two)
	}()
	var traffic int64
	for _, st := range want.Steps {
		traffic = max(traffic, st.MaxRoundTraffic)
	}
	if !congest.FansOut(0, int(traffic)) {
		t.Fatalf("busiest round carries %d messages: the default rule fans out no round of this shape", traffic)
	}
	runs := map[string]func() *core.Result{
		"w1": func() *core.Result { return build(one) },
		"w2": func() *core.Result { return build(two) },
		"w7": func() *core.Result { return build(seven) },
		"all-dispatched": func() *core.Result {
			defer congest.SetInlineWorkCutoff(0)()
			return build(two)
		},
	}
	_, wantHash := graph.Fingerprint(want.Spanner)
	for name, run := range runs {
		got := run()
		if _, hash := graph.Fingerprint(got.Spanner); hash != wantHash {
			t.Errorf("%s: spanner fingerprint %s, all-inline %s", name, hash, wantHash)
		}
		if got.TotalRounds != want.TotalRounds || got.Messages != want.Messages {
			t.Errorf("%s: (rounds, messages) = (%d, %d), all-inline (%d, %d)",
				name, got.TotalRounds, got.Messages, want.TotalRounds, want.Messages)
		}
		if got, want := invocations(got), invocations(want); got != want {
			t.Errorf("%s: %d program invocations, all-inline %d", name, got, want)
		}
		if !slices.Equal(got.Steps, want.Steps) {
			t.Errorf("%s: step stream differs from the all-inline run's", name)
		}
		if got.ArenaBytes != want.ArenaBytes {
			t.Errorf("%s: ArenaBytes %d, all-inline %d", name, got.ArenaBytes, want.ArenaBytes)
		}
	}
}

// invocations sums a build's program invocations over its steps.
func invocations(res *core.Result) int64 {
	var n int64
	for _, st := range res.Steps {
		n += st.Invocations
	}
	return n
}

// buildShapeInvocationsBeforeSleep is what a build of TestEnginesMatchOnBuildShape's
// graph cost in program invocations when every near-neighbors and
// ruling-set vertex ran every round of its schedule.
const buildShapeInvocationsBeforeSleep = 1_515_292

// TestSleepingHalvesBuildInvocations: with near-neighbors vertices
// asleep between their last forward and the next phase, and ruling-set
// vertices asleep between firing windows, the build shape's program
// invocations at least halve, while its rounds and messages are the
// schedule's as before.
func TestSleepingHalvesBuildInvocations(t *testing.T) {
	g := gen.GNP(2048, 20.0/2047, 7, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p, core.Options{Mode: core.ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	if got := invocations(res); 2*got > buildShapeInvocationsBeforeSleep {
		t.Errorf("%d program invocations per build, want at most half of %d", got, buildShapeInvocationsBeforeSleep)
	}
	if res.TotalRounds != 11911 || res.Messages != 8845931 {
		t.Errorf("(rounds, messages) = (%d, %d), want the schedule's (11911, 8845931)", res.TotalRounds, res.Messages)
	}
}
