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
	"nearspan/internal/delta"
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
// parameters, the execution mode, and the job's operational
// limits. The zero limits mean the server defaults apply.
type JobSpec struct {
	Name  string    `json:"name,omitempty"`
	Graph GraphSpec `json:"graph"`

	Eps            float64 `json:"eps,omitempty"`
	TargetEpsPrime float64 `json:"target_eps_prime,omitempty"`
	Kappa          int     `json:"kappa"`
	Rho            float64 `json:"rho"`

	Mode string `json:"mode,omitempty"` // centralized|distributed (default distributed)

	// TimeoutMS bounds the job's wall-clock build time; 0 applies the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRounds bounds the job's rounds: a build or patch succeeds if
	// and only if its total_rounds <= MaxRounds (see
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
// Deltas counts the applied batches, Incremental reports that the last
// rebuild replayed the job's retained state (core.Rebuild) — false only
// for the first PATCH of a job restored from a snapshot, which carries
// no rebuild state and builds from scratch — and BuildMS is the last
// (re)build's wall clock. Every rebuild replays its near-neighbors
// steps, which send no messages, so after a replayed PATCH Messages
// counts the other steps only.
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

	// g is the input graph, nil for a recovered job until input
	// materializes it from the spec and pending, the journaled deltas
	// not yet applied. n and m are g's size, known without it.
	g       *graph.Graph
	pending []deltaData
	n, m    int
	p       *params.Params
	mode    core.Mode

	// fan carries the job's OnStep stream to any number of subscribers
	// (event streams, metrics counters); its history doubles as the
	// replay buffer for late subscribers.
	fan protocols.StepFanout

	// patchMu serializes PATCH …/edges rebuilds: one delta applies at a
	// time, and each rebuild reads the state the previous one installed.
	// It also serializes the job's snapshot writes: the build worker
	// holds it while installing the done snapshot. It is never held
	// while answering queries — readers see either the old snapshot or
	// the new one, swapped atomically under mu.
	patchMu sync.Mutex

	mu         sync.Mutex
	state      string
	submitted  time.Time
	generate   time.Duration // the input graph's materialization, in this process
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
// the graph and parameter schedule, timing the graph's generation.
// Validation errors are reported at submission time (HTTP 400), not at
// build time.
func newJob(id string, spec JobSpec, defaultTimeout, maxTimeout time.Duration, now time.Time) (*Job, error) {
	genStart := time.Now()
	g, err := spec.Graph.build()
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	generate := time.Since(genStart)
	job, err := jobOf(id, spec, g.N(), g.M(), defaultTimeout, maxTimeout, now)
	if err != nil {
		return nil, err
	}
	job.g, job.generate = g, generate
	return job, nil
}

// jobOf validates spec for an input graph of n vertices and m edges
// and returns the job without its graph: recovery restores a job from
// the journaled sizes and leaves the graph to input.
func jobOf(id string, spec JobSpec, n, m int, defaultTimeout, maxTimeout time.Duration, now time.Time) (*Job, error) {
	var p *params.Params
	var err error
	switch {
	case spec.TargetEpsPrime > 0:
		p, err = params.FromTarget(spec.TargetEpsPrime, spec.Kappa, spec.Rho, n)
	case spec.Eps > 0:
		p, err = params.New(spec.Eps, spec.Kappa, spec.Rho, n)
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
		n:         n,
		m:         m,
		p:         p,
		mode:      mode,
		state:     StateQueued,
		submitted: now,
		timeout:   timeout,
		done:      make(chan struct{}),
	}, nil
}

// materialize builds an input graph from journaled inputs: the spec's
// graph with every delta batch applied in order.
func materialize(spec GraphSpec, deltas []deltaData) (*graph.Graph, error) {
	g, err := spec.build()
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	for _, d := range deltas {
		if g, err = delta.Apply(g, d.batch()); err != nil {
			return nil, fmt.Errorf("journaled delta %d does not apply: %w", d.Seq, err)
		}
	}
	return g, nil
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

// QueryPool returns the job's distance-query pool, or nil while the job
// has not finished with a spanner (queued, running, failed, cancelled).
// After a delta rebuild it returns the pool over the latest spanner.
func (j *Job) QueryPool() *oracle.Pool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pool
}

// GraphN returns the job graph's vertex count (query bounds). Deltas
// never add or remove vertices, so it is fixed at construction.
func (j *Job) GraphN() int { return j.n }

// JobView is the wire form of a job — everything a status poll needs.
// A job submitted to this process is stamped submitted_at before its
// graph is generated, so started_at − submitted_at is generate_ms plus
// the time it waited in the queue. GenerateMS is the time spent
// materializing the input graph from the spec; for a job recovered from
// the journal it is 0 until its first PATCH or build materializes the
// graph (the spec plus every journaled delta), and then that time.
type JobView struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	State     string `json:"state"`
	GraphN    int    `json:"graph_n"`
	GraphM    int    `json:"graph_m"`
	Mode      string `json:"mode"`
	Submitted string `json:"submitted_at"`
	Started   string `json:"started_at,omitempty"`
	Finished  string `json:"finished_at,omitempty"`
	StepsSeen int    `json:"steps_seen"`

	GenerateMS float64 `json:"generate_ms"`

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
		GraphN:    j.n,
		GraphM:    j.m,
		Mode:      j.mode.String(),
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		Result:    j.result,
		Error:     j.jobErr,

		GenerateMS: float64(j.generate) / float64(time.Millisecond),
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
