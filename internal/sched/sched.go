// Package sched provides the shared execution runtime of the simulator
// stack: a bounded worker pool that multiplexes round-sized task batches
// from many concurrently running CONGEST simulators.
//
// Before this runtime existed every sharded simulator owned a
// private GOMAXPROCS-sized worker pool, so N in-flight spanner builds
// cost N×GOMAXPROCS goroutines and fought each other for the same cores.
// A Runtime inverts that: the pool is process-wide (see Default) or
// per-batch (see New), simulators submit one batch per round, and the
// submitting goroutine always helps execute its own batch, so progress
// is guaranteed even when every worker is busy with other simulators —
// or when the runtime has been closed.
//
// Determinism is the caller's concern, not the scheduler's: congest
// shards write disjoint buffer regions, so any interleaving of task
// execution produces the identical round. The runtime only promises
// that Do returns after every task ran exactly once.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runtime is a shared pool of workers executing task batches. The zero
// value is not usable; construct with New or use Default. A Runtime also
// carries per-runtime instrumentation (SimulatorsCreated) so concurrent
// batches and parallel tests can make counting assertions without
// interfering with each other.
type Runtime struct {
	workers int
	jobs    chan *batch

	startOnce sync.Once // workers spawn lazily on the first Do
	started   bool
	lifetime  sync.WaitGroup

	mu        sync.RWMutex // guards jobs sends against Close
	closed    bool
	closeOnce sync.Once

	created atomic.Int64 // simulators constructed on this runtime
}

// New returns a runtime with the given number of workers (<= 0 means
// GOMAXPROCS). Workers are spawned lazily on the first Do, so a runtime
// that only ever serves sequential simulators costs no goroutines.
func New(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runtime{workers: workers, jobs: make(chan *batch, workers)}
}

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the process-wide runtime, created on first use with
// GOMAXPROCS workers. Every simulator whose Options leave Runtime nil
// shares it, which is what makes concurrent builds share one bounded
// pool. The default runtime is never closed; its workers park on an
// empty channel between batches.
func Default() *Runtime {
	defaultOnce.Do(func() { defaultRT = New(0) })
	return defaultRT
}

// Workers returns the configured worker count.
func (r *Runtime) Workers() int { return r.workers }

// NoteSimulator records one simulator construction on this runtime.
func (r *Runtime) NoteSimulator() { r.created.Add(1) }

// SimulatorsCreated returns the number of simulators constructed on this
// runtime since it was created — the per-runtime replacement for the old
// package-global congest.Created counter, immune to concurrent batches
// running on other runtimes.
func (r *Runtime) SimulatorsCreated() int64 { return r.created.Load() }

// batch is one Do call: n tasks claimed off an atomic cursor by however
// many workers pick the batch up, plus the caller.
type batch struct {
	n       int32
	cursor  atomic.Int32
	pending atomic.Int32
	run     func(int)
	done    chan struct{}

	// The panic of the lowest task index, so a multi-task panic re-raises
	// deterministically on the caller regardless of scheduling.
	panicMu  sync.Mutex
	panicIdx int
	panicked any
}

func (b *batch) help() {
	for {
		i := b.cursor.Add(1) - 1
		if i >= b.n {
			return
		}
		b.runTask(int(i))
		if b.pending.Add(-1) == 0 {
			close(b.done)
		}
	}
}

// runTask isolates one task so a panicking task cannot take down a
// shared worker (which would kill the process): the panic is recorded
// and re-raised on the goroutine that called Do.
func (b *batch) runTask(i int) {
	defer func() {
		if rec := recover(); rec != nil {
			b.panicMu.Lock()
			if b.panicked == nil || i < b.panicIdx {
				b.panicked = rec
				b.panicIdx = i
			}
			b.panicMu.Unlock()
		}
	}()
	b.run(i)
}

// Do executes run(0..n-1), each exactly once, and returns when all calls
// have completed. Tasks run concurrently on the runtime's workers and on
// the calling goroutine itself; with k concurrent Do calls the total
// parallelism is bounded by workers + k. If a task panics, Do re-raises
// the panic of the lowest task index after the batch completes.
//
// Do must not be called from inside a task (the nested batch could then
// starve waiting for workers occupied by its ancestors), and must not
// race with Close. On a closed runtime Do still completes correctly,
// executed by the caller alone.
func (r *Runtime) Do(n int, run func(i int)) {
	if n <= 0 {
		return
	}
	b := &batch{n: int32(n), run: run, done: make(chan struct{})}
	b.pending.Store(int32(n))
	r.offer(b, n)
	b.help()
	<-b.done
	if b.panicked != nil {
		panic(b.panicked)
	}
}

// offer hands the batch to up to min(workers, n-1) idle workers (the
// caller executes too, hence n-1). Sends are non-blocking: a full queue
// means the workers are busy, and the caller makes progress alone rather
// than waiting for a slot.
func (r *Runtime) offer(b *batch, n int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return
	}
	r.start()
	for i := 0; i < n-1 && i < r.workers; i++ {
		select {
		case r.jobs <- b:
		default:
			return
		}
	}
}

// start spawns the workers; callers must hold at least the read lock so
// a concurrent Close cannot interleave.
func (r *Runtime) start() {
	r.startOnce.Do(func() {
		r.started = true
		r.lifetime.Add(r.workers)
		for w := 0; w < r.workers; w++ {
			go r.worker()
		}
	})
}

func (r *Runtime) worker() {
	defer r.lifetime.Done()
	for b := range r.jobs {
		b.help()
	}
}

// Close terminates the workers and waits for them to exit. It is
// idempotent and safe on a never-started runtime. Simulators attached to
// the runtime keep working after Close (Do degrades to caller-only
// execution), but the intended lifecycle is: stop the simulators, then
// close the runtime.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		close(r.jobs)
		started := r.started
		r.mu.Unlock()
		if started {
			r.lifetime.Wait()
		}
	})
}
