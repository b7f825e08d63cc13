package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/delta"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/sched"
)

// Eight distributed builds running concurrently on one shared runtime
// must be bit-identical — spanner, rounds, messages, step stream — to
// the same builds run sequentially, both when every round runs inline
// and when every round is dispatched to the runtime. This is the batch
// runtime's core correctness claim, and under -race it also proves the
// scheduler multiplexes the simulators without data races.
func TestConcurrentBuildsBitIdenticalToSequential(t *testing.T) {
	cfgs := testConfigs(t)
	// Eight jobs cycling over four workloads.
	var jobs []testConfig
	for i := 0; i < 8; i++ {
		jobs = append(jobs, cfgs[i%4])
	}

	sequential := make([]*Result, len(jobs))
	ps := make([]*params.Params, len(jobs))
	for i, c := range jobs {
		ps[i] = mustParams(t, c)
		sequential[i] = build(t, c, Options{Mode: ModeDistributed})
	}
	for _, sc := range []struct {
		name   string
		cutoff int
	}{{"inline", math.MaxInt}, {"dispatched", 0}} {
		func() {
			defer congest.SetInlineWorkCutoff(sc.cutoff)()
			checkConcurrentBuilds(t, sc.name, jobs, ps, sequential)
		}()
	}
}

// checkConcurrentBuilds runs jobs concurrently on one private runtime
// and compares each result with its sequential build.
func checkConcurrentBuilds(t *testing.T, label string, jobs []testConfig, ps []*params.Params, sequential []*Result) {
	t.Helper()
	rt := sched.New(4)
	defer rt.Close()
	concurrent := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = Build(context.Background(), jobs[i].g, ps[i],
				Options{Mode: ModeDistributed, Runtime: rt})
		}(i)
	}
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s job %d (%s): %v", label, i, jobs[i].name, errs[i])
		}
		seq, con := sequential[i], concurrent[i]
		if !sameSpanner(seq.Spanner, con.Spanner) {
			t.Errorf("%s job %d (%s): concurrent spanner differs (m=%d vs %d)",
				label, i, jobs[i].name, con.EdgeCount(), seq.EdgeCount())
		}
		if seq.TotalRounds != con.TotalRounds || seq.Messages != con.Messages {
			t.Errorf("%s job %d: metrics differ: sequential (%d,%d) concurrent (%d,%d)",
				label, i, seq.TotalRounds, seq.Messages, con.TotalRounds, con.Messages)
		}
		if len(seq.Steps) != len(con.Steps) {
			t.Fatalf("%s job %d: step streams differ in length", label, i)
		}
		for s := range seq.Steps {
			if seq.Steps[s] != con.Steps[s] {
				t.Errorf("%s job %d step %d: %+v vs %+v", label, i, s, seq.Steps[s], con.Steps[s])
			}
		}
	}
	// All eight builds shared the one runtime: one simulator each.
	if got := rt.SimulatorsCreated(); got != int64(len(jobs)) {
		t.Errorf("%s: runtime counted %d simulators for %d builds", label, got, len(jobs))
	}
}

// A cancelled context aborts the build and returns ctx.Err() (wrapped,
// errors.Is-matchable) with no partial spanner, in both modes.
func TestBuildCancelledReturnsCtxErr(t *testing.T) {
	c := testConfigs(t)[1]
	for _, mode := range []Mode{ModeCentralized, ModeDistributed} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Build(ctx, c.g, mustParams(t, c), Options{Mode: mode})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", mode, err)
		}
		if res != nil {
			t.Errorf("%s: cancelled build returned a partial result", mode)
		}
	}
}

// Cancelling mid-build (from the step callback, so the cut lands inside
// the protocol pipeline) aborts promptly and cleanly.
func TestBuildCancelledMidConstruction(t *testing.T) {
	c := testConfigs(t)[1]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	steps := 0
	res, err := Build(ctx, c.g, mustParams(t, c), Options{
		Mode: ModeDistributed,
		OnStep: func(protocols.StepMetrics) {
			steps++
			if steps == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled build returned a partial result")
	}
	if steps > 3 {
		t.Errorf("build kept running after cancel: %d steps completed", steps)
	}
}

// The OnStep progress stream matches Result.Steps exactly, in order,
// in both modes, for a full build and for an incremental rebuild (whose
// replayed steps stream like any other).
func TestOnStepStreamsResultSteps(t *testing.T) {
	c := testConfigs(t)[0]
	ctx := context.Background()
	p := mustParams(t, c)
	for _, mode := range []Mode{ModeCentralized, ModeDistributed} {
		prev := build(t, c, Options{Mode: mode, KeepRebuildState: true})
		oneDelete := &delta.Batch{Delete: []delta.Edge{{U: 0, V: int32(c.g.Neighbor(0, 0))}}}
		for _, run := range []struct {
			name string
			call func(Options) (*Result, error)
		}{
			{"build", func(o Options) (*Result, error) { return Build(ctx, c.g, p, o) }},
			{"rebuild", func(o Options) (*Result, error) { return Rebuild(ctx, prev, oneDelete, o) }},
		} {
			var seen []protocols.StepMetrics
			res, err := run.call(Options{
				Mode:   mode,
				OnStep: func(sm protocols.StepMetrics) { seen = append(seen, sm) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if run.name == "rebuild" && !slices.ContainsFunc(res.Steps, func(sm protocols.StepMetrics) bool { return sm.Replayed }) {
				t.Fatalf("%s rebuild: no replayed step to stream (incremental %v)", mode, res.Incremental)
			}
			if len(seen) != len(res.Steps) {
				t.Fatalf("%s %s: OnStep fired %d times for %d steps", mode, run.name, len(seen), len(res.Steps))
			}
			for i := range seen {
				if seen[i] != res.Steps[i] {
					t.Errorf("%s %s step %d: callback %+v vs result %+v", mode, run.name, i, seen[i], res.Steps[i])
				}
			}
		}
	}
}
