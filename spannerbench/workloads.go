package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"nearspan/internal/graph"
	"nearspan/internal/sched"
	"nearspan/internal/service"
)

// workload is one closed-loop traffic mix. Every workload reports every
// metric; primary names the request class the op_* metrics time.
type workload struct {
	primary string
	// rate is timed steps per second of --seconds: a run does
	// ceil(rate × seconds) steps, so every run of a workload does the
	// same work whatever the speed of the code. Each step sends
	// opsPerStep primary requests.
	rate       float64
	opsPerStep int
	// setup builds the workload's long-lived jobs; it is what setup_s
	// times, with the daemon's start. warm is the untimed warm-up.
	setup func(*session) error
	warm  func(*session) error
	step  func(s *session, i int) error
	// check runs the workload's checks against the live server. It
	// returns the spanner of each job whose answers were kept, or nil
	// when the answers are checked against the spanners recovered at
	// restart.
	check func(*session, context.Context, *checks, *sched.Runtime) (map[string]*graph.Graph, error)
	// direct is the traced run's layer-level replay of the workload.
	direct func(*direct, time.Time) error
}

// churnJobs is the number of graphs churn patches in turn, so its
// figures average over several inputs rather than ride on one.
const churnJobs = 8

var workloads = map[string]workload{
	"build": {
		primary: "builds", rate: 2, opsPerStep: 1,
		setup: func(s *session) error { return s.setupBuild(gnpSpec("warm-up", mix(s.seed, streamWarmSpec))) },
		warm:  func(s *session) error { return s.afterBuild(s.jobs[0], -1) },
		step:  (*session).buildStep,
		check: func(s *session, ctx context.Context, c *checks, rt *sched.Runtime) (map[string]*graph.Graph, error) {
			spec := buildSpecAt(s.seed, 0)
			for _, v := range s.docs {
				if v.Name == spec.Name {
					_, err := c.outOfBand(ctx, rt, spec, v.Result)
					return nil, err
				}
			}
			return nil, errors.New("check: the first timed build has no job document")
		},
		direct: (*direct).build,
	},
	"road-query": {
		primary: "point queries", rate: 60, opsPerStep: gridQueriesPerRound,
		setup: func(s *session) error { return s.setupBuild(gridSpec("road-grid")) },
		warm:  (*session).roadWarm,
		step:  (*session).roadStep,
		check: func(s *session, ctx context.Context, c *checks, rt *sched.Runtime) (map[string]*graph.Graph, error) {
			h, err := c.outOfBand(ctx, rt, s.specs[0], &s.builds[0])
			return map[string]*graph.Graph{s.jobs[0]: h}, err
		},
		direct: (*direct).road,
	},
	"churn": {
		primary: "patches", rate: 15, opsPerStep: 1,
		setup:  (*session).churnSetup,
		warm:   (*session).churnWarm,
		step:   (*session).churnStep,
		check:  (*session).churnCheck,
		direct: (*direct).churn,
	},
}

func buildSpecAt(seed uint64, i int) service.JobSpec {
	return gnpSpec("build-"+strconv.Itoa(i), mix(seed, streamBuildSpec, uint64(i)))
}

func churnSpecAt(seed uint64, j int) service.JobSpec {
	return gnpSpec("churn-"+strconv.Itoa(j), mix(seed, streamSetupSpec, uint64(j)))
}

// buildStep submits the i-th GNP build, then its queries.
func (s *session) buildStep(i int) error {
	v, err := s.build(buildSpecAt(s.seed, i))
	if err != nil || v == nil {
		return err
	}
	if s.timing {
		s.builds = append(s.builds, *v.Result)
	}
	return s.afterBuild(v.ID, i)
}

// afterBuild sends a fresh build's point queries and one hot-source
// batch. Every answer is kept: the checks verify them against the
// recovered spanners.
func (s *session) afterBuild(job string, i int) error {
	ps := newPairStream(gnpN, mix(s.seed, streamPairs, uint64(i)))
	for q := range queriesPerBuild {
		if _, err := s.query(job, ps.next(), [2]int{i, q}, checkAll); err != nil {
			return err
		}
	}
	hot := newHotSource(gnpN, gnpHotPool, gnpBatchTargets, mix(s.seed, streamHot, uint64(i)))
	return s.batch(job, hot.next(), true)
}

// roadWarm runs query rounds on warm-up streams, so the timed streams
// start fresh.
func (s *session) roadWarm() error {
	const n = gridSide * gridSide
	s.pairs = newPairStream(n, mix(s.seed, streamWarmSpec))
	s.hot = newHotSource(n, gridHotPool, gridBatchTargets, mix(s.seed, streamWarmSpec))
	for r := range 4 {
		if err := s.roadStep(-1 - r); err != nil {
			return err
		}
	}
	s.pairs = newPairStream(n, mix(s.seed, streamPairs))
	s.hot = newHotSource(n, gridHotPool, gridBatchTargets, mix(s.seed, streamHot))
	return nil
}

// roadStep runs query round r: uniform point queries (every
// pathEvery-th with its path), then one hot-source batch. The checks
// verify every path and a sample of the distances.
func (s *session) roadStep(r int) error {
	job := s.jobs[0]
	for q := range gridQueriesPerRound {
		p := s.pairs.next()
		check := checkPath
		if (r*gridQueriesPerRound+q)%64 == 0 {
			check = checkAll
		}
		if _, err := s.query(job, p, [2]int{r, q}, check); err != nil {
			return err
		}
		if s.timing && len(s.queryLat) > len(s.opLat) {
			s.opLat = append(s.opLat, s.queryLat[len(s.queryLat)-1]/1000)
		}
	}
	return s.batch(job, s.hot.next(), r%16 == 0)
}

func (s *session) churnSetup() error {
	for j := range churnJobs {
		if err := s.setupBuild(churnSpecAt(s.seed, j)); err != nil {
			return err
		}
	}
	return nil
}

// churnWarm materializes the benchmark's own copy of every input graph
// and sends each job one warm-up delta.
func (s *session) churnWarm() error {
	for _, spec := range s.specs {
		g, _, err := materialize(spec)
		if err != nil {
			return err
		}
		s.tracked = append(s.tracked, g)
	}
	s.hot = newHotSource(gnpN, gnpHotPool, gnpBatchTargets, mix(s.seed, streamHot))
	for j := range s.jobs {
		if err := s.churnStep(-1 - j); err != nil {
			return err
		}
	}
	return nil
}

// churnStep sends delta i to job i mod churnJobs, then point queries
// that must see the patched spanner: the first asks for the route
// between the endpoints of an edge the delta deleted, and every path
// answer must use only edges of the patched graph. A hot-source batch
// follows.
func (s *session) churnStep(i int) error {
	j := (i%churnJobs + churnJobs) % churnJobs
	b := churnBatch(s.seed, i, s.tracked[j])
	applied, err := s.patch(j, b)
	if err != nil || !applied {
		return err
	}
	ps := newPairStream(gnpN, mix(s.seed, streamPairs, uint64(i)))
	for q := range queriesPerPatch {
		p := ps.next()
		if q == 0 {
			p = pair{u: int(b.Delete[0].U), v: int(b.Delete[0].V), path: true}
		}
		a, err := s.query(s.jobs[j], p, [2]int{i, q}, checkNone)
		if err != nil {
			return err
		}
		if a != nil && p.path {
			if err := validPath(s.tracked[j], p.u, p.v, a.Dist, a.Path); err != nil {
				s.inline = append(s.inline, fmt.Sprintf("delta %d: path %d-%d: %v", i, p.u, p.v, err))
			}
		}
	}
	return s.batch(s.jobs[j], s.hot.next(), false)
}

// churnCheck verifies the first set-up build out of band, then that each
// job's last served spanner equals a from-scratch build of its tracked
// graph, and sends fresh queries to be checked against those spanners.
func (s *session) churnCheck(ctx context.Context, c *checks, rt *sched.Runtime) (map[string]*graph.Graph, error) {
	if _, err := c.outOfBand(ctx, rt, s.specs[0], &s.builds[0]); err != nil {
		return nil, err
	}
	final := make(map[string]*graph.Graph, len(s.jobs))
	for j, job := range s.jobs {
		h, err := c.fromScratch(ctx, rt, s.specs[j], s.tracked[j], s.fps[job])
		if err != nil {
			return nil, err
		}
		final[job] = h
		ps := newPairStream(gnpN, mix(s.seed, streamPairs, uint64(1<<32+j)))
		for q := range queriesPerPatch {
			if _, err := s.query(job, ps.next(), [2]int{-1, q}, checkAll); err != nil {
				return nil, err
			}
		}
		if err := s.batch(job, s.hot.next(), true); err != nil {
			return nil, err
		}
	}
	return final, nil
}
