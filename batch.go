package nearspan

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nearspan/internal/core"
	"nearspan/internal/protocols"
	"nearspan/internal/sched"
)

// BuildJob is one graph/configuration pair in a batch build.
type BuildJob struct {
	// Name optionally labels the job in errors; it is never required.
	Name   string
	Graph  *Graph
	Config Config
}

// BuildOutcome is the per-job result of a batch build: exactly one of
// Result and Err is non-nil. Outcomes are positional — outcome i belongs
// to job i — so a batch with failures still identifies every success.
type BuildOutcome struct {
	Result *Result
	Err    error
}

// BatchOptions configure a BatchBuilder.
type BatchOptions struct {
	// Workers sizes the batch's private CONGEST scheduler: the bounded
	// worker pool that every distributed build in the batch multiplexes
	// its simulator rounds onto (<= 0 means GOMAXPROCS). N concurrent
	// builds share these workers instead of stacking N private pools.
	Workers int
	// Parallel bounds the number of in-flight builds (<= 0 means
	// GOMAXPROCS). Each in-flight build costs one coordinating goroutine
	// plus its graph-sized simulator arenas; the CPU parallelism is
	// governed by Workers.
	Parallel int
	// OnStep, when set, receives every protocol step metric as it
	// completes, tagged with the job's index in the batch. Callbacks for
	// different jobs arrive concurrently (guard shared state); within one
	// job they arrive in execution order.
	OnStep func(job int, step StepMetrics)
}

// BatchBuilder builds many spanners concurrently on one shared
// execution runtime. Construction is cheap (workers start lazily);
// Close releases the runtime's goroutines — always call it. The
// builder is safe for concurrent use, and every build is bit-identical
// to the same build run alone (construction is deterministic and
// builds share no mutable state, only the scheduler).
type BatchBuilder struct {
	rt       *sched.Runtime
	parallel int
	onStep   func(int, StepMetrics)
}

// NewBatchBuilder returns a builder whose batches share one bounded
// scheduler.
func NewBatchBuilder(opts BatchOptions) *BatchBuilder {
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &BatchBuilder{
		rt:       sched.New(opts.Workers),
		parallel: parallel,
		onStep:   opts.OnStep,
	}
}

// Close releases the builder's scheduler goroutines. It must not be
// called while a batch is in flight.
func (b *BatchBuilder) Close() { b.rt.Close() }

// BuildBatch builds all jobs, running up to the configured Parallel
// limit concurrently on the shared runtime, and returns one outcome per
// job in job order. Outputs are bit-identical to a sequential
// BuildSpanner loop over the same jobs.
//
// Cancelling the context aborts in-flight builds within one simulated
// round and marks not-yet-started jobs with ctx.Err(); the returned
// error is then ctx.Err() as well. Otherwise the returned error is nil
// even if individual jobs failed — per-job errors live in the outcomes.
func (b *BatchBuilder) BuildBatch(ctx context.Context, jobs []BuildJob) ([]BuildOutcome, error) {
	out := make([]BuildOutcome, len(jobs))
	sem := make(chan struct{}, b.parallel)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = b.buildJob(ctx, i, jobs[i])
		}(i)
	}
	wg.Wait()
	return out, ctx.Err()
}

func (b *BatchBuilder) buildJob(ctx context.Context, i int, job BuildJob) BuildOutcome {
	fail := func(err error) BuildOutcome {
		if job.Name != "" {
			err = fmt.Errorf("nearspan: job %d (%s): %w", i, job.Name, err)
		} else {
			err = fmt.Errorf("nearspan: job %d: %w", i, err)
		}
		return BuildOutcome{Err: err}
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	cfg := job.Config
	p, err := cfg.params(job.Graph.N())
	if err != nil {
		return fail(err)
	}
	opts := cfg.options()
	opts.Runtime = b.rt
	if b.onStep != nil {
		// The per-job OnStep slot is a single function; fan it out so the
		// job's own callback and the batch-level callback are independent
		// subscribers instead of a hand-merged closure (and so further
		// consumers — e.g. a service's /events streams — can attach and
		// detach race-free mid-build).
		var fan protocols.StepFanout
		if cfg.OnStep != nil {
			fan.Subscribe(cfg.OnStep)
		}
		fan.Subscribe(func(sm StepMetrics) { b.onStep(i, sm) })
		opts.OnStep = fan.Emit
	}
	res, err := core.Build(ctx, job.Graph, p, opts)
	if err != nil {
		return fail(err)
	}
	return BuildOutcome{Result: res}
}

// BuildBatch builds all jobs concurrently on a temporary shared runtime
// (created for the call, released before returning) — the one-shot face
// of BatchBuilder. See BatchBuilder.BuildBatch for semantics.
func BuildBatch(ctx context.Context, jobs []BuildJob, opts BatchOptions) ([]BuildOutcome, error) {
	b := NewBatchBuilder(opts)
	defer b.Close()
	return b.BuildBatch(ctx, jobs)
}
