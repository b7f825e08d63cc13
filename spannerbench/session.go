package main

import (
	"context"
	"fmt"
	"path/filepath"

	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/service"
)

// session is one live daemon, the closed-loop client that drives it,
// and everything the run observed through it.
type session struct {
	ctx  context.Context
	seed uint64
	dir  string
	d    *daemon
	cl   *client

	// fps maps every job the session created to the fingerprint of the
	// spanner it last served.
	fps map[string]string
	// builds holds the result documents of the full builds the
	// congest_* and spanner_edges metrics average over.
	builds []service.JobResult
	// docs holds every job document a write request returned.
	docs []service.JobView

	// Timed-phase tallies. While timing is false (set-up, warm-up and
	// checks) requests are not counted and a failed one aborts the run.
	timing    bool
	attempted int
	failed    int
	opLat     []float64 // primary request latency, ms
	queryLat  []float64 // point-query latency, µs
	batchLat  []float64 // batch request latency, µs
	batchSize int
	// pointLat keys the latency (µs) of each timed distance-only point
	// query by its position in the workload's input stream, so the
	// traced run can compare the same pairs against the oracle alone.
	pointLat map[[2]int]float64

	// answers are kept for the output checks.
	answers []recorded
	// inline collects failures of checks made as answers arrive.
	inline []string

	// Set-up jobs (road-query: the grid; churn: the churned graphs),
	// their specs and, for churn, the input graphs as the benchmark
	// tracks them.
	jobs    []string
	specs   []service.JobSpec
	tracked []*graph.Graph
	hot     *hotSource
	pairs   *pairStream
}

// recorded is one served distance answer kept for checking.
type recorded struct {
	job  string
	u, v int
	dist int32
	path []int32
	// withPath marks a path=1 answer, whose path is checked; checkDist
	// asks for the distance to be checked against BFS too.
	withPath, checkDist bool
}

// checkLevel says which parts of an answer the output checks verify.
type checkLevel int

const (
	checkNone checkLevel = iota // the answer is not kept
	checkPath                   // only the path of a path=1 answer
	checkAll                    // the distance, and the path if any
)

func newSession(ctx context.Context, seed uint64, dir string, procs int) (*session, error) {
	d, err := startDaemon(ctx, filepath.Join(dir, "data"), procs)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	return &session{
		ctx: ctx, seed: seed, dir: dir, d: d, cl: newClient(d.addr),
		fps: map[string]string{}, pointLat: map[[2]int]float64{},
	}, nil
}

// close ends the client's connection, then drains the daemon and closes
// its listener and store. Safe to call more than once.
func (s *session) close() error {
	if s.d == nil {
		return nil
	}
	s.cl.close()
	err := s.d.close()
	s.d = nil
	return err
}

// count tallies one timed request. Outside the timed phase a failed
// request is an error.
func (s *session) count(what string, r reply, err error) error {
	ok := err == nil && r.ok()
	if s.timing {
		s.attempted++
		if !ok {
			s.failed++
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !ok {
		return fmt.Errorf("%s: HTTP %d: %s", what, r.status, r.body)
	}
	return nil
}

// build submits spec with ?wait=1 and returns its job document, or nil
// when the request failed inside the timed phase.
func (s *session) build(spec service.JobSpec) (*service.JobView, error) {
	r, v, err := s.cl.submit(s.ctx, spec)
	if cerr := s.count("build "+spec.Name, r, err); cerr != nil {
		return nil, cerr
	}
	if v == nil {
		return nil, s.ctx.Err()
	}
	if v.State != service.StateDone || v.Result == nil {
		return nil, fmt.Errorf("build %s: job %s ended %s", spec.Name, v.ID, v.State)
	}
	if s.timing {
		s.opLat = append(s.opLat, ms(r.dur))
	}
	s.fps[v.ID] = v.Result.Fingerprint
	s.docs = append(s.docs, *v)
	return v, nil
}

// query sends one point query; key places it in the input stream.
func (s *session) query(job string, q pair, key [2]int, check checkLevel) (*answer, error) {
	r, a, err := s.cl.query(s.ctx, job, q)
	if cerr := s.count("query", r, err); cerr != nil {
		return nil, cerr
	}
	if a == nil {
		return nil, s.ctx.Err()
	}
	if s.timing {
		s.queryLat = append(s.queryLat, us(r.dur))
		if !q.path {
			s.pointLat[key] = us(r.dur)
		}
	}
	if check == checkAll || (check == checkPath && q.path) {
		s.answers = append(s.answers, recorded{job: job, u: a.U, v: a.V, dist: a.Dist, path: a.Path,
			withPath: q.path, checkDist: check == checkAll})
	}
	return a, nil
}

func (s *session) batch(job string, pairs [][2]int, keep bool) error {
	r, as, err := s.cl.batch(s.ctx, job, pairs)
	if cerr := s.count("batch", r, err); cerr != nil {
		return cerr
	}
	if as == nil {
		return s.ctx.Err()
	}
	if s.timing {
		s.batchLat = append(s.batchLat, us(r.dur))
		s.batchSize = len(pairs)
	}
	if keep {
		for _, a := range as {
			s.answers = append(s.answers, recorded{job: job, u: a.U, v: a.V, dist: a.Dist, checkDist: true})
		}
	}
	return nil
}

// patch sends one delta batch to set-up job j and, when the server
// applied it, tracks the patched graph with delta.Apply.
func (s *session) patch(j int, b *delta.Batch) (bool, error) {
	r, v, err := s.cl.patch(s.ctx, s.jobs[j], b)
	if cerr := s.count("patch", r, err); cerr != nil {
		return false, cerr
	}
	if v == nil {
		return false, s.ctx.Err()
	}
	if s.timing {
		s.opLat = append(s.opLat, ms(r.dur))
	}
	g, err := delta.Apply(s.tracked[j], b)
	if err != nil {
		return false, fmt.Errorf("track delta: %w", err)
	}
	s.tracked[j] = g
	if v.Result == nil || v.Result.Deltas == 0 {
		s.inline = append(s.inline, fmt.Sprintf("patch of %s: job document reports no applied delta", v.ID))
	} else {
		s.fps[v.ID] = v.Result.Fingerprint
	}
	s.docs = append(s.docs, *v)
	return true, nil
}

// setupBuild builds one of the workload's long-lived jobs.
func (s *session) setupBuild(spec service.JobSpec) error {
	v, err := s.build(spec)
	if err != nil {
		return err
	}
	s.jobs = append(s.jobs, v.ID)
	s.specs = append(s.specs, spec)
	s.builds = append(s.builds, *v.Result)
	return nil
}
