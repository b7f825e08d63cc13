package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/sched"
)

// Eight distributed builds running concurrently on one shared runtime
// must be bit-identical — spanner, rounds, messages, step stream — to
// the same builds run sequentially. This is the batch runtime's core
// correctness claim, and under -race it also proves the scheduler
// multiplexes the simulators without data races.
func TestConcurrentBuildsBitIdenticalToSequential(t *testing.T) {
	cfgs := testConfigs(t)
	// Eight jobs cycling over four workloads, alternating engines so the
	// shared runtime multiplexes heterogeneous simulators.
	type job struct {
		c   testConfig
		eng congest.Engine
	}
	var jobs []job
	engines := congest.Engines()
	for i := 0; i < 8; i++ {
		jobs = append(jobs, job{cfgs[i%4], engines[i%len(engines)]})
	}

	sequential := make([]*Result, len(jobs))
	ps := make([]*params.Params, len(jobs))
	for i, j := range jobs {
		ps[i] = mustParams(t, j.c)
		sequential[i] = build(t, j.c, Options{Mode: ModeDistributed, Engine: j.eng})
	}

	rt := sched.New(4)
	defer rt.Close()
	concurrent := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			concurrent[i], errs[i] = Build(context.Background(), j.c.g, ps[i],
				Options{Mode: ModeDistributed, Engine: j.eng, Runtime: rt})
		}(i)
	}
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d (%s/%s): %v", i, jobs[i].c.name, jobs[i].eng, errs[i])
		}
		seq, con := sequential[i], concurrent[i]
		if !sameSpanner(seq.Spanner, con.Spanner) {
			t.Errorf("job %d (%s/%s): concurrent spanner differs (m=%d vs %d)",
				i, jobs[i].c.name, jobs[i].eng, con.EdgeCount(), seq.EdgeCount())
		}
		if seq.TotalRounds != con.TotalRounds || seq.Messages != con.Messages {
			t.Errorf("job %d: metrics differ: sequential (%d,%d) concurrent (%d,%d)",
				i, seq.TotalRounds, seq.Messages, con.TotalRounds, con.Messages)
		}
		if len(seq.Steps) != len(con.Steps) {
			t.Fatalf("job %d: step streams differ in length", i)
		}
		for s := range seq.Steps {
			if seq.Steps[s] != con.Steps[s] {
				t.Errorf("job %d step %d: %+v vs %+v", i, s, seq.Steps[s], con.Steps[s])
			}
		}
	}
	// All eight builds shared the one runtime: one simulator each.
	if got := rt.SimulatorsCreated(); got != int64(len(jobs)) {
		t.Errorf("runtime counted %d simulators for %d builds", got, len(jobs))
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
// in both modes.
func TestOnStepStreamsResultSteps(t *testing.T) {
	c := testConfigs(t)[0]
	for _, mode := range []Mode{ModeCentralized, ModeDistributed} {
		var seen []protocols.StepMetrics
		res, err := Build(context.Background(), c.g, mustParams(t, c), Options{
			Mode:   mode,
			OnStep: func(sm protocols.StepMetrics) { seen = append(seen, sm) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(res.Steps) {
			t.Fatalf("%s: OnStep fired %d times for %d steps", mode, len(seen), len(res.Steps))
		}
		for i := range seen {
			if seen[i] != res.Steps[i] {
				t.Errorf("%s step %d: callback %+v vs result %+v", mode, i, seen[i], res.Steps[i])
			}
		}
	}
}
