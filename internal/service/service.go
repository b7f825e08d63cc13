// Package service is the long-running face of the spanner builder: a
// job daemon that accepts build submissions over HTTP, executes them on
// the shared execution runtime, streams per-step progress, and exposes
// operational state (health, Prometheus-style metrics).
//
// The lifecycle is a queue → build → drain state machine:
//
//	submit ──▶ bounded queue ──▶ worker pool ──▶ core.Build on the
//	  │   full: 429                │                shared sched runtime
//	  │   draining: 503            │ per-job ctx: wall-clock timeout +
//	  │                            │ round budget + drain force-cancel
//	  ▼                            ▼
//	registry (status, /events fan-out)        done | failed | cancelled
//
// Drain (SIGTERM) never emits a partial spanner: new submissions are
// shed with 503, queued-but-unstarted jobs are marked cancelled, and
// in-flight builds get the drain grace to finish before their contexts
// are cancelled — which the construction observes at a simulated round
// boundary, discarding the build entirely (a core.Build either returns
// a complete spanner or an error, never a prefix). Determinism is
// untouched: cancellation truncates executions, it cannot corrupt them,
// so every job that does complete is bit-identical to the same build
// run anywhere else.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/protocols"
	"nearspan/internal/sched"
	"nearspan/internal/store"
)

// Options configure a Server. The zero value is usable: a queue of 64,
// 2 concurrent builds, the process-wide scheduler, no default timeout,
// and a 10-second drain grace.
type Options struct {
	// QueueDepth bounds the number of accepted-but-unstarted jobs;
	// submissions beyond it are shed with 429 (<= 0 means 64).
	QueueDepth int
	// Builds bounds the number of concurrently running builds
	// (<= 0 means 2). CPU parallelism is governed by the scheduler the
	// builds share, not by this knob.
	Builds int
	// SchedWorkers, when positive, gives the server a private sched
	// runtime with that many workers, closed at drain — the
	// configuration tests use to assert a leak-free shutdown. When
	// zero, builds share the process-wide sched.Default(), which is
	// never closed.
	SchedWorkers int
	// DefaultTimeout is the per-job wall-clock limit applied when a
	// submission carries none; 0 means no default.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested per-job timeout; 0 means no cap.
	MaxTimeout time.Duration
	// DrainGrace is how long Drain lets in-flight builds run before
	// cancelling them (<= 0 means 10s). Cancellation lands at a round
	// boundary, so the post-grace tail is one round, not one build.
	DrainGrace time.Duration
	// QueryReplicas sets the per-job query pool's replica count
	// (<= 0 means GOMAXPROCS). Replica workspaces allocate lazily on
	// first query, so idle done jobs cost only the spanner itself.
	QueryReplicas int
	// QueryCacheSources bounds each job's shared source-level cache
	// (0 means the oracle default of 64; negative disables caching).
	QueryCacheSources int
	// Store, when non-nil, makes the server crash-safe: job lifecycle
	// events are journaled, completed spanners are snapshotted, and New
	// replays the journal on boot (the server reports not-ready until
	// the replay finishes). Nil means fully in-memory, as before.
	Store *store.Store

	// recoverGate, when set (tests only), holds boot-time recovery until
	// the channel is closed, so tests can observe the not-ready window.
	recoverGate chan struct{}
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Builds <= 0 {
		o.Builds = 2
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 10 * time.Second
	}
	return o
}

// Errors the submission path reports; the HTTP layer maps them to 429
// and 503.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: server is draining")
	// ErrNotReady sheds submissions and patches while boot-time journal
	// replay is still running (persistent servers only).
	ErrNotReady = errors.New("service: server is recovering")
	// ErrPersistence sheds submissions once the store has degraded to
	// read-only: a job whose acceptance cannot be journaled would be
	// silently lost by the next restart, so it is refused up front.
	// Queries against already-built spanners keep working.
	ErrPersistence = errors.New("service: persistence unavailable")
)

// Server is the build daemon: a bounded job queue, a worker pool
// feeding core.Build on a shared scheduler, and the job registry the
// HTTP surface reads. Construct with New, serve its Handler, and shut
// down with Drain (or let Run orchestrate both).
type Server struct {
	opts  Options
	rt    *sched.Runtime
	ownRT bool

	queue chan *Job

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for listing
	nextID int

	draining  atomic.Bool
	drainCh   chan struct{} // closed when drain starts: workers stop picking up jobs
	drainOnce sync.Once

	// buildCtx parents every job's build context; buildCancel is the
	// drain deadline's force-cancel.
	buildCtx    context.Context
	buildCancel context.CancelFunc

	wg  sync.WaitGroup // worker goroutines
	bg  sync.WaitGroup // boot-time recovery goroutine
	met metrics

	// st is the durable journal + snapshot store (nil = in-memory only).
	st *store.Store

	// ready flips once boot-time recovery completes (immediately for
	// in-memory servers); readyCh closes at the same moment.
	ready     atomic.Bool
	readyCh   chan struct{}
	readyOnce sync.Once

	// beforeBuild, when set (tests only), runs on the worker goroutine
	// after a job leaves the queue and before its build starts.
	beforeBuild func(*Job)
	// recoverGate mirrors Options.recoverGate (tests only).
	recoverGate chan struct{}
}

// New constructs the server and starts its workers.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		queue:   make(chan *Job, opts.QueueDepth),
		jobs:    make(map[string]*Job),
		drainCh: make(chan struct{}),
		readyCh: make(chan struct{}),
		st:      opts.Store,
	}
	s.recoverGate = opts.recoverGate
	if opts.SchedWorkers > 0 {
		s.rt = sched.New(opts.SchedWorkers)
		s.ownRT = true
	} else {
		s.rt = sched.Default()
	}
	s.buildCtx, s.buildCancel = context.WithCancel(context.Background())
	s.wg.Add(opts.Builds)
	for i := 0; i < opts.Builds; i++ {
		go s.worker()
	}
	if s.st != nil {
		// Replay off the construction path: the HTTP listener comes up
		// immediately and /readyz gates traffic until recovery is done.
		s.bg.Add(1)
		go s.recoverLoop()
	} else {
		s.markReady()
	}
	return s
}

func (s *Server) markReady() {
	s.readyOnce.Do(func() {
		s.ready.Store(true)
		close(s.readyCh)
	})
}

// Ready reports whether boot-time recovery has completed (always true
// for in-memory servers). Not-ready servers shed submissions and
// patches but still answer health and status reads.
func (s *Server) Ready() bool { return s.ready.Load() }

// WaitReady blocks until the server is ready or ctx expires.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit validates the spec, registers the job, and enqueues it.
// Returns ErrNotReady while boot-time recovery runs, ErrDraining once
// Drain has started, ErrQueueFull when the queue is at capacity, and a
// wrapped ErrPersistence when the acceptance cannot be journaled (the
// caller sheds load in each case); spec errors are *BadRequestError.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	// The ready check also guarantees id allocation is stable: recovery
	// is the only other writer of nextID, and it finished before ready.
	if !s.ready.Load() {
		s.met.rejected.Add(1)
		return nil, ErrNotReady
	}
	if s.draining.Load() {
		s.met.rejected.Add(1)
		return nil, ErrDraining
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	s.mu.Unlock()

	job, err := newJob(id, spec, s.opts.DefaultTimeout, s.opts.MaxTimeout, time.Now())
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}

	// The draining re-check, the journal append, the enqueue, and the
	// registration share one critical section with Drain's flag-flip +
	// queue flush: a job either lands in the queue before the flush
	// starts (and the flush cancels it) or is rejected here — never
	// enqueued after the flush, where no worker would ever pick it up.
	// The capacity check precedes the journal append so a shed
	// submission never leaves a ghost "accepted" record for the next
	// boot to resurrect; the append precedes the enqueue so a job is in
	// the queue only if it exists durably. The enqueue itself cannot
	// block: capacity was just verified under s.mu, and after ready the
	// only queue senders run under s.mu.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	if err := s.apply(job, jobEvent{kind: recAccepted, at: job.submitted}); err != nil {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	s.queue <- job
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.mu.Unlock()
	return job, nil
}

// BadRequestError marks a submission rejected for its content (HTTP
// 400), as opposed to server state (429/503).
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// Job returns the job with the given id, or nil.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every registered job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth returns the number of accepted-but-unstarted jobs.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// The drain check comes first so a closed drainCh wins over a
		// non-empty queue (select would otherwise pick randomly).
		select {
		case <-s.drainCh:
			return
		default:
		}
		select {
		case <-s.drainCh:
			return
		case job := <-s.queue:
			if s.draining.Load() {
				s.apply(job, cancelledEvent("cancelled: server draining before build started"))
				continue
			}
			s.runJob(job)
		}
	}
}

// runJob executes one build under the job's limits and records the
// terminal state.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithCancel(s.buildCtx)
	defer cancel()
	if s.apply(job, jobEvent{kind: evRunning, cancel: cancel}) != nil {
		s.apply(job, cancelledEvent("cancelled before build started"))
		return
	}
	// A job re-enqueued at boot generates its graph here, off the
	// recovery path.
	job.patchMu.Lock()
	g, err := s.input(job)
	job.patchMu.Unlock()
	if err != nil {
		s.apply(job, jobEvent{kind: recFailed, err: &JobError{Kind: "error", Message: err.Error(), HTTPStatus: 500}})
		return
	}
	res, result, err := s.build(ctx, job, func(ctx context.Context) (*core.Result, error) {
		if s.beforeBuild != nil {
			s.beforeBuild(job)
		}
		return core.Build(ctx, g, job.p, s.buildOptions(job))
	})
	if err != nil {
		s.apply(job, jobEvent{kind: recFailed, err: classifyErr(err)})
		return
	}
	// A PATCH that sees the job done waits until its snapshot is in.
	job.patchMu.Lock()
	defer job.patchMu.Unlock()
	s.apply(job, jobEvent{kind: recDone, res: result, build: res})
}

// build is the one build tail every spanner goes through — first
// builds, delta rebuilds and recovery rebuilds alike: run under the
// job's wall-clock limit, counted in the build metrics, fingerprinted
// into a JobResult. A panic in run becomes an ordinary error: one
// poisoned job must not take the daemon (and every other job's
// spanner) down with it, so the panic value and stack land in the
// job's terminal record instead.
func (s *Server) build(ctx context.Context, job *Job, run func(context.Context) (*core.Result, error)) (res *core.Result, result *JobResult, err error) {
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	s.met.active.Add(1)
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, &buildPanicError{val: r, stack: string(debug.Stack())}
			}
		}()
		res, err = run(ctx)
	}()
	dur := time.Since(start)
	s.met.active.Add(-1)
	s.met.buildNanos.Add(int64(dur))
	s.met.builds.Add(1)
	if err != nil {
		return nil, nil, err
	}
	m, fp := graph.Fingerprint(res.Spanner)
	s.met.highWater(res.ArenaBytes)
	return res, &JobResult{
		Edges:       m,
		TotalRounds: res.TotalRounds,
		Messages:    res.Messages,
		Fingerprint: fp,
		ArenaBytes:  res.ArenaBytes,
		BuildMS:     dur.Milliseconds(),
		Incremental: res.Incremental,
	}, nil
}

// buildOptions is the one place job limits and the metrics fan-out turn
// into core.Options — builds and delta rebuilds must execute under the
// same runtime, budget, and step stream. KeepRebuildState retains the
// per-phase near-neighbors tables (memory comparable to the graph) so
// every done job accepts PATCH …/edges without re-running from scratch.
func (s *Server) buildOptions(job *Job) core.Options {
	return core.Options{
		Mode:             job.mode,
		Runtime:          s.rt,
		RoundBudget:      job.Spec.MaxRounds,
		KeepRebuildState: true,
		OnStep: func(sm protocols.StepMetrics) {
			s.met.steps.Add(1)
			s.met.rounds.Add(int64(sm.Rounds))
			s.met.messages.Add(sm.Messages)
			job.fan.Emit(sm)
		},
	}
}

// input returns the job's input graph. A job recovered from the
// journal has none until its first use: input then materializes it
// from the spec and the journaled deltas, checks it against the
// journaled size, and drops the deltas. Callers hold job.patchMu (or
// run before the server is ready), so a job materializes once.
func (s *Server) input(job *Job) (*graph.Graph, error) {
	job.mu.Lock()
	g, pending, n, m := job.g, job.pending, job.n, job.m
	job.mu.Unlock()
	if g != nil {
		return g, nil
	}
	start := time.Now()
	g, err := materialize(job.Spec.Graph, pending)
	if err != nil {
		return nil, fmt.Errorf("materialize input: %w", err)
	}
	if g.N() != n || g.M() != m {
		return nil, fmt.Errorf("materialize input: graph has n=%d, m=%d; journal records n=%d, m=%d", g.N(), g.M(), n, m)
	}
	job.mu.Lock()
	job.g, job.pending, job.generate = g, nil, time.Since(start)
	job.mu.Unlock()
	s.met.inputsMaterialized.Add(1)
	return g, nil
}

// poolFor builds the query tier over an immutable spanner.
func (s *Server) poolFor(spanner *graph.Graph) *oracle.Pool {
	return oracle.NewPool(spanner, oracle.PoolOptions{
		Replicas:     s.opts.QueryReplicas,
		CacheSources: s.opts.QueryCacheSources,
	})
}

// RebuildJob applies one edge-delta batch to a done job: it rebuilds
// the spanner incrementally from the job's retained state (core.Rebuild
// — bit-identical to a from-scratch build of the patched graph) and,
// once the delta is journaled, atomically swaps in the patched graph,
// the updated result document, and a fresh query pool. Queries in
// flight during the rebuild answer from the old snapshot; queries that
// start after the swap see the new one. Batches serialize per job;
// concurrent PATCHes queue.
//
// The first PATCH of a job recovered from the journal materializes its
// input graph (see input); a graph that fails to materialize fails the
// patch with 500 and the job keeps serving its spanner.
//
// The returned *JobError (nil on success) carries the HTTP status:
// 404 while the job has no spanner, 409 when the batch disagrees with
// the current graph, 400 when it is malformed, 503 while draining.
func (s *Server) RebuildJob(job *Job, b *delta.Batch) *JobError {
	if !s.ready.Load() {
		return &JobError{Kind: "not-ready", Message: ErrNotReady.Error(), HTTPStatus: 503}
	}
	if s.draining.Load() {
		return &JobError{Kind: "draining", Message: ErrDraining.Error(), HTTPStatus: 503}
	}
	// A delta that cannot be journaled would silently vanish at the next
	// restart (replay would rebuild the pre-delta spanner), so a degraded
	// store sheds patches like it sheds submissions.
	if s.st != nil {
		if err := s.st.ReadOnly(); err != nil {
			return &JobError{Kind: "persistence", Message: fmt.Sprintf("%v: %v", ErrPersistence, err), HTTPStatus: 503}
		}
	}
	job.patchMu.Lock()
	defer job.patchMu.Unlock()

	job.mu.Lock()
	prev, cur := job.buildRes, job.result
	job.mu.Unlock()
	if cur == nil {
		return &JobError{Kind: "not-ready", Message: "job has no spanner to patch (not finished)", HTTPStatus: 404}
	}
	g, err := s.input(job)
	if err != nil {
		return &JobError{Kind: "error", Message: err.Error(), HTTPStatus: 500}
	}
	// Validate up front against the graph the delta claims to patch so a
	// disagreeing batch is a clean 409, not a failed build. patchMu makes
	// the check-then-rebuild atomic: nothing else swaps the graph under us.
	if err := delta.Check(g, b); err != nil {
		if errors.Is(err, delta.ErrConflict) {
			return &JobError{Kind: "conflict", Message: err.Error(), HTTPStatus: 409}
		}
		return &JobError{Kind: "bad-request", Message: err.Error(), HTTPStatus: 400}
	}

	// The rebuild runs under the drain umbrella (buildCancel aborts it at
	// a round boundary) and the job's wall-clock limit, like any build.
	res, result, err := s.build(s.buildCtx, job, func(ctx context.Context) (*core.Result, error) {
		if prev != nil {
			return core.Rebuild(ctx, prev, b, s.buildOptions(job))
		}
		// A job restored from a snapshot carries no retained rebuild
		// state (the snapshot holds only the spanner CSR). Its first
		// patch builds the patched graph from scratch — bit-identical to
		// the incremental path — and re-establishes the state every later
		// delta chains from.
		patched, err := delta.Apply(g, b)
		if err != nil {
			return nil, err
		}
		return core.Build(ctx, patched, job.p, s.buildOptions(job))
	})
	if err != nil {
		// The job keeps its current spanner; only the patch fails.
		return classifyErr(err)
	}
	result.Deltas = cur.Deltas + 1
	s.apply(job, jobEvent{kind: recDelta, res: result, build: res, g: res.Rebuild.Graph, batch: b})
	return nil
}

// queryPoolStats aggregates the per-job query-pool counters for
// /metrics.
func (s *Server) queryPoolStats() (agg oracle.PoolStats) {
	for _, job := range s.Jobs() {
		if pool := job.QueryPool(); pool != nil {
			st := pool.Stats()
			agg.Misses += st.Misses
			agg.SourceRuns += st.SourceRuns
			agg.Batches += st.Batches
			agg.Paths += st.Paths
			agg.CacheFills += st.CacheFills
			agg.CachedSources += st.CachedSources
		}
	}
	return agg
}

// Drain shuts the server down without ever emitting a partial spanner:
// it stops accepting submissions, cancels queued-but-unstarted jobs,
// and waits for in-flight builds — until ctx expires, at which point
// their contexts are cancelled and the builds abort at the next round
// boundary (their jobs finish cancelled, resultless). Drain returns
// when every worker has exited and, if the server owns its scheduler,
// its workers are released too. It is idempotent; concurrent calls
// share one drain.
func (s *Server) Drain(ctx context.Context) {
	s.drainOnce.Do(func() {
		// The flag-flip and queue flush hold s.mu so they are atomic
		// against Submit's draining-check + enqueue: every job Submit
		// accepted is in the queue before this flush runs, so none can
		// slip in afterwards and sit unserved forever.
		s.mu.Lock()
		s.draining.Store(true)
		close(s.drainCh)

		// Flush jobs still in the queue: no build ever starts for them.
		for {
			select {
			case job := <-s.queue:
				s.apply(job, cancelledEvent("cancelled: server draining before build started"))
				continue
			default:
			}
			break
		}
		s.mu.Unlock()

		workersDone := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(workersDone)
		}()
		select {
		case <-workersDone:
		case <-ctx.Done():
			// Grace expired: force in-flight builds to their next round
			// boundary.
			s.buildCancel()
			<-workersDone
		}
		s.buildCancel()
		// Boot-time recovery may still be rebuilding a spanner on the
		// shared runtime; buildCancel has aborted it at a round boundary,
		// so this wait is bounded — and it must precede rt.Close.
		s.bg.Wait()
		if s.ownRT {
			s.rt.Close()
		}
	})
	// Late or concurrent callers still wait for the drain to finish.
	s.wg.Wait()
	s.bg.Wait()
}

// Run serves s on l until ctx is cancelled (typically by SIGTERM via
// signal.NotifyContext), then drains with the configured grace and
// shuts the HTTP listener down. It is the whole daemon lifecycle in one
// call — cmd/spannerd is little more than flags + a listener + Run.
func Run(ctx context.Context, s *Server, l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("service: serve: %w", err)
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainGrace)
	defer cancel()
	s.Drain(drainCtx)

	// Jobs are finished; event streams have ended with them. Give the
	// HTTP layer a moment to flush, then hard-close.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	<-serveErr // always http.ErrServerClosed by now
	return nil
}
