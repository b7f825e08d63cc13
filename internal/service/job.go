package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
)

// GraphSpec names a workload graph: either a deterministic generator
// (type + its parameters) or an uploaded edge list. Generators keep job
// submissions tiny and reproducible — the same spec always yields the
// bit-identical graph — while "edgelist" carries arbitrary topologies.
type GraphSpec struct {
	Type      string  `json:"type"` // gnp|grid|torus|path|cycle|hypercube|tree|communities|edgelist
	N         int     `json:"n,omitempty"`
	P         float64 `json:"p,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Connected bool    `json:"connected,omitempty"`
	Rows      int     `json:"rows,omitempty"`
	Cols      int     `json:"cols,omitempty"`
	Dim       int     `json:"dim,omitempty"`
	K         int     `json:"k,omitempty"`
	CommSize  int     `json:"comm_size,omitempty"`
	PIn       float64 `json:"p_in,omitempty"`
	POut      float64 `json:"p_out,omitempty"`
	// Edges is the whitespace edge-list text (header "n m", one "u v"
	// line per edge) for Type "edgelist".
	Edges string `json:"edges,omitempty"`
}

// build materializes the spec into a graph.
func (gs GraphSpec) build() (*graph.Graph, error) {
	switch gs.Type {
	case "gnp":
		if gs.N <= 0 {
			return nil, fmt.Errorf("gnp needs n > 0")
		}
		return gen.StreamGNP(gs.N, gs.P, gs.Seed, gs.Connected).Graph(), nil
	case "grid":
		if gs.Rows <= 0 || gs.Cols <= 0 {
			return nil, fmt.Errorf("grid needs rows > 0 and cols > 0")
		}
		return gen.StreamGrid(gs.Rows, gs.Cols).Graph(), nil
	case "torus":
		if gs.Rows <= 0 || gs.Cols <= 0 {
			return nil, fmt.Errorf("torus needs rows > 0 and cols > 0")
		}
		return gen.StreamTorus(gs.Rows, gs.Cols).Graph(), nil
	case "path":
		if gs.N <= 0 {
			return nil, fmt.Errorf("path needs n > 0")
		}
		return gen.Path(gs.N), nil
	case "cycle":
		if gs.N <= 0 {
			return nil, fmt.Errorf("cycle needs n > 0")
		}
		return gen.Cycle(gs.N), nil
	case "hypercube":
		if gs.Dim <= 0 {
			return nil, fmt.Errorf("hypercube needs dim > 0")
		}
		return gen.Hypercube(gs.Dim), nil
	case "tree":
		if gs.N <= 0 {
			return nil, fmt.Errorf("tree needs n > 0")
		}
		return gen.RandomTree(gs.N, gs.Seed), nil
	case "communities":
		if gs.K <= 0 || gs.CommSize <= 0 {
			return nil, fmt.Errorf("communities needs k > 0 and comm_size > 0")
		}
		return gen.StreamCommunities(gs.K, gs.CommSize, gs.PIn, gs.POut, gs.Seed).Graph(), nil
	case "edgelist":
		if gs.Edges == "" {
			return nil, fmt.Errorf("edgelist needs non-empty edges text")
		}
		return graph.ReadEdgeList(strings.NewReader(gs.Edges))
	case "":
		return nil, fmt.Errorf("missing graph type")
	default:
		return nil, fmt.Errorf("unknown graph type %q", gs.Type)
	}
}

// JobSpec is one build-job submission: the graph, the spanner
// parameters, the execution mode/engine, and the job's operational
// limits. The zero limits mean the server defaults apply.
type JobSpec struct {
	Name  string    `json:"name,omitempty"`
	Graph GraphSpec `json:"graph"`

	Eps            float64 `json:"eps,omitempty"`
	TargetEpsPrime float64 `json:"target_eps_prime,omitempty"`
	Kappa          int     `json:"kappa"`
	Rho            float64 `json:"rho"`

	Mode   string `json:"mode,omitempty"`   // centralized|distributed (default distributed)
	Engine string `json:"engine,omitempty"` // sequential|parallel (default parallel)

	// TimeoutMS bounds the job's wall-clock build time; 0 applies the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRounds bounds the job's simulated rounds (see
	// core.Options.RoundBudget); 0 means unlimited.
	MaxRounds int `json:"max_rounds,omitempty"`
}

// Job states, in lifecycle order. Terminal states are done, failed, and
// cancelled; rejected submissions (full queue, draining) never become
// jobs at all.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobResult summarizes a completed build. Fingerprint is
// graph.Fingerprint of the spanner — two builds agree bit for bit
// exactly when their fingerprints (and edge counts) agree. After a
// PATCH …/edges rebuild the document describes the latest spanner:
// Deltas counts the applied batches, Incremental reports whether the
// last rebuild took the frontier-scoped path or fell back to a full
// build, and BuildMS is the last (re)build's wall clock.
type JobResult struct {
	Edges       int    `json:"edges"`
	TotalRounds int    `json:"total_rounds"`
	Messages    int64  `json:"messages"`
	Fingerprint string `json:"fingerprint"`
	ArenaBytes  int64  `json:"arena_bytes"`
	BuildMS     int64  `json:"build_ms"`
	Deltas      int    `json:"deltas,omitempty"`
	Incremental bool   `json:"incremental,omitempty"`
}

// JobError is the structured terminal error of a failed or cancelled
// job. Kind is one of "bad-request", "timeout", "budget-exhausted",
// "cancelled", or "error"; HTTPStatus is the status a synchronous
// response for this failure carries (4xx for client-attributable
// failures — bad specs, exhausted budgets, expired deadlines).
type JobError struct {
	Kind       string     `json:"kind"`
	Message    string     `json:"message"`
	HTTPStatus int        `json:"http_status"`
	Budget     *BudgetErr `json:"budget,omitempty"`
}

// BudgetErr mirrors congest.ErrBudgetExhausted for the wire: the
// exhausted budget plus the live in-flight histogram at the cut.
type BudgetErr struct {
	MaxRounds int            `json:"max_rounds"`
	Pending   int            `json:"pending"`
	Active    int            `json:"active"`
	ByKind    map[string]int `json:"by_kind,omitempty"`
}

// buildPanicError wraps a panic recovered from a build worker so it
// flows through the ordinary error path into a terminal job record.
type buildPanicError struct {
	val   any
	stack string
}

func (e *buildPanicError) Error() string {
	return fmt.Sprintf("build panicked: %v\n%s", e.val, e.stack)
}

// classifyErr maps a build error to its structured form.
func classifyErr(err error) *JobError {
	var be *congest.ErrBudgetExhausted
	var pe *buildPanicError
	switch {
	case errors.As(err, &pe):
		return &JobError{Kind: "panic", Message: pe.Error(), HTTPStatus: 500}
	case errors.As(err, &be):
		wire := &BudgetErr{MaxRounds: be.MaxRounds, Pending: be.Pending, Active: be.Active}
		if len(be.ByKind) > 0 {
			wire.ByKind = make(map[string]int, len(be.ByKind))
			for k, n := range be.ByKind {
				wire.ByKind[strconv.Itoa(int(k))] = n
			}
		}
		return &JobError{Kind: "budget-exhausted", Message: err.Error(), HTTPStatus: 422, Budget: wire}
	case errors.Is(err, context.DeadlineExceeded):
		return &JobError{Kind: "timeout", Message: err.Error(), HTTPStatus: 408}
	case errors.Is(err, context.Canceled):
		return &JobError{Kind: "cancelled", Message: err.Error(), HTTPStatus: 409}
	default:
		return &JobError{Kind: "error", Message: err.Error(), HTTPStatus: 500}
	}
}

// Job is one submitted build: the validated inputs, the lifecycle
// state, the per-step metrics stream (buffered for replay and fanned
// out live to /events subscribers), and the terminal result or error.
type Job struct {
	ID   string
	Spec JobSpec

	g      *graph.Graph
	p      *params.Params
	mode   core.Mode
	engine congest.Engine

	// fan carries the job's OnStep stream to any number of subscribers
	// (event streams, metrics counters); its history doubles as the
	// replay buffer for late subscribers.
	fan protocols.StepFanout

	// patchMu serializes PATCH …/edges rebuilds: one delta applies at a
	// time, and each rebuild reads the state the previous one installed.
	// The build worker also holds it while persisting the done record,
	// so the first delta is journaled after it. It is never held while
	// answering queries — readers see either the old snapshot or the new
	// one, swapped atomically under mu.
	patchMu sync.Mutex

	mu         sync.Mutex
	state      string
	submitted  time.Time
	started    time.Time
	finished   time.Time
	result     *JobResult
	jobErr     *JobError
	pool       *oracle.Pool // query tier over the built spanner; set with result
	buildRes   *core.Result // retained build (with rebuild state) deltas replay against
	cancel     context.CancelFunc
	done       chan struct{} // closed on terminal state
	timeout    time.Duration // resolved wall-clock limit (0 = none)
	cancelSeen bool          // a client or the drain requested cancellation
}

// newJob validates spec against the server defaults and materializes
// the graph and parameter schedule. Validation errors are reported at
// submission time (HTTP 400), not at build time.
func newJob(id string, spec JobSpec, defaultTimeout, maxTimeout time.Duration, now time.Time) (*Job, error) {
	g, err := spec.Graph.build()
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	var p *params.Params
	switch {
	case spec.TargetEpsPrime > 0:
		p, err = params.FromTarget(spec.TargetEpsPrime, spec.Kappa, spec.Rho, g.N())
	case spec.Eps > 0:
		p, err = params.New(spec.Eps, spec.Kappa, spec.Rho, g.N())
	default:
		err = fmt.Errorf("set eps or target_eps_prime")
	}
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}

	mode := core.ModeDistributed
	switch spec.Mode {
	case "", "distributed":
	case "centralized":
		mode = core.ModeCentralized
	default:
		return nil, fmt.Errorf("unknown mode %q (want centralized|distributed)", spec.Mode)
	}
	engine := congest.EngineParallel
	if spec.Engine != "" {
		engine, err = congest.ParseEngine(spec.Engine)
		if err != nil {
			return nil, err
		}
	}
	if spec.MaxRounds < 0 {
		return nil, fmt.Errorf("max_rounds must be >= 0")
	}
	timeout := defaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if maxTimeout > 0 && (timeout <= 0 || timeout > maxTimeout) {
		timeout = maxTimeout
	}

	return &Job{
		ID:        id,
		Spec:      spec,
		g:         g,
		p:         p,
		mode:      mode,
		engine:    engine,
		state:     StateQueued,
		submitted: now,
		timeout:   timeout,
		done:      make(chan struct{}),
	}, nil
}

// Done returns the channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cancellation: a queued job is dropped when a worker
// picks it up; a running job's build context is cancelled, aborting at
// the next round boundary.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.cancelSeen = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (j *Job) setRunning(cancel context.CancelFunc, now time.Time) (alreadyCancelled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelSeen {
		return true
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	return false
}

func (j *Job) finishOK(res *JobResult, pool *oracle.Pool, build *core.Result, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.result = res
	j.pool = pool
	j.buildRes = build
	j.finished = now
	close(j.done)
}

// QueryPool returns the job's distance-query pool, or nil while the job
// has not finished with a spanner (queued, running, failed, cancelled).
// After a delta rebuild it returns the pool over the latest spanner.
func (j *Job) QueryPool() *oracle.Pool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pool
}

// restoreDone installs a recovered terminal success without touching
// the job's lifecycle channel semantics: the job looks exactly like one
// that finished before the restart, except build may be nil (snapshot
// reload) — in which case the first PATCH takes the full-build path.
func (j *Job) restoreDone(g *graph.Graph, res *JobResult, pool *oracle.Pool, build *core.Result, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.g = g
	j.state = StateDone
	j.result = res
	j.pool = pool
	j.buildRes = build
	j.finished = finished
	close(j.done)
}

// restoreErr installs a recovered terminal failure.
func (j *Job) restoreErr(jerr *JobError, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if jerr.Kind == "cancelled" {
		j.state = StateCancelled
	} else {
		j.state = StateFailed
	}
	j.jobErr = jerr
	j.finished = finished
	close(j.done)
}

// graphSnapshot reads the job's current graph pointer (swapped on
// rebuild, so the read takes the lock).
func (j *Job) graphSnapshot() *graph.Graph {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.g
}

// rebuildBase snapshots the retained build a delta replays against
// (nil until the job is done). Callers hold patchMu across the whole
// read-rebuild-swap cycle, so the snapshot cannot go stale under them.
func (j *Job) rebuildBase() *core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buildRes
}

// swapSpanner atomically installs a rebuilt spanner: the patched graph,
// the updated result document, the fresh query pool, and the rebuild
// state the next delta chains from. The old pool is not closed — it
// owns no goroutines, and queries in flight on it finish against their
// (still immutable) old snapshot before it is collected.
func (j *Job) swapSpanner(g *graph.Graph, res *JobResult, pool *oracle.Pool, build *core.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.g = g
	j.result = res
	j.pool = pool
	j.buildRes = build
}

// Guarantee returns the (alpha, beta) error bound every query answer
// carries: d_G <= answer <= alpha*d_G + beta.
func (j *Job) Guarantee() (alpha float64, beta int32) {
	return 1 + j.p.EpsPrime(), j.p.BetaInt()
}

// GraphN returns the job graph's vertex count (query bounds). Deltas
// never add or remove vertices, but the graph pointer itself is swapped
// on rebuild, so the read takes the lock.
func (j *Job) GraphN() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.g.N()
}

func (j *Job) finishErr(jerr *JobError, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if jerr.Kind == "cancelled" {
		j.state = StateCancelled
	} else {
		j.state = StateFailed
	}
	j.jobErr = jerr
	j.finished = now
	close(j.done)
}

// JobView is the wire form of a job — everything a status poll needs.
type JobView struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	State     string `json:"state"`
	GraphN    int    `json:"graph_n"`
	GraphM    int    `json:"graph_m"`
	Mode      string `json:"mode"`
	Engine    string `json:"engine"`
	Submitted string `json:"submitted_at"`
	Started   string `json:"started_at,omitempty"`
	Finished  string `json:"finished_at,omitempty"`
	StepsSeen int    `json:"steps_seen"`

	Result *JobResult `json:"result,omitempty"`
	Error  *JobError  `json:"error,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Name:      j.Spec.Name,
		State:     j.state,
		GraphN:    j.g.N(),
		GraphM:    j.g.M(),
		Mode:      j.mode.String(),
		Engine:    j.engine.String(),
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		Result:    j.result,
		Error:     j.jobErr,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	v.StepsSeen = len(j.fan.Steps())
	return v
}
