package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/graph"
	"nearspan/internal/sched"
	"nearspan/internal/service"
	"nearspan/internal/store"
	"nearspan/internal/verify"
)

// Output checks. They run outside every timed section; each failure is
// collected and turns the run's "correct" false.

// stretchSamples and stretchSeed fix the sampled stretch check.
const (
	stretchSamples = 16
	stretchSeed    = 0x5eed
)

type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// golden submits the gnp-256 fixture through HTTP and compares the
// served spanner with the paper row of the golden file.
func (c *checks) golden(s *session, goldenPath string) error {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	var rows []struct {
		Name  string  `json:"name"`
		Algo  string  `json:"algo"`
		Eps   float64 `json:"eps"`
		Kappa int     `json:"kappa"`
		Rho   float64 `json:"rho"`
		Edges int     `json:"edges"`
		Hash  string  `json:"hash"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	spec := goldenSpec()
	for _, row := range rows {
		if row.Name != "gnp-256" || row.Algo != "paper" || row.Eps != spec.Eps || row.Kappa != spec.Kappa || row.Rho != spec.Rho {
			continue
		}
		v, err := s.build(spec)
		if err != nil {
			return err
		}
		if v.Result.Fingerprint != row.Hash || v.Result.Edges != row.Edges {
			c.failf("golden gnp-256: served (%d edges, %s), fixture (%d edges, %s)",
				v.Result.Edges, v.Result.Fingerprint, row.Edges, row.Hash)
		}
		return nil
	}
	return errors.New("golden fixture: no paper row for gnp-256")
}

// outOfBand builds spec outside the service and checks that it matches
// the served fingerprint, is a subgraph of its input, and meets the
// job's (α, β) stretch on sampled sources. It returns the spanner.
func (c *checks) outOfBand(ctx context.Context, rt *sched.Runtime, spec service.JobSpec, served *service.JobResult) (*graph.Graph, error) {
	g, p, err := materialize(spec)
	if err != nil {
		return nil, err
	}
	res, err := core.Build(ctx, g, p, core.Options{Mode: core.ModeDistributed, Engine: congest.EngineParallel, Runtime: rt})
	if err != nil {
		return nil, fmt.Errorf("out-of-band build of %s: %w", spec.Name, err)
	}
	m, fp := graph.Fingerprint(res.Spanner)
	if fp != served.Fingerprint || m != served.Edges {
		c.failf("%s: out-of-band build (%d edges, %s), served (%d edges, %s)", spec.Name, m, fp, served.Edges, served.Fingerprint)
	}
	if !verify.Subgraph(res.Spanner, g) {
		c.failf("%s: spanner is not a subgraph of its input", spec.Name)
	}
	rep := verify.StretchSampled(g, res.Spanner, 1+p.EpsPrime(), p.BetaInt(), stretchSamples, stretchSeed)
	if !rep.OK() {
		c.failf("%s: sampled stretch check failed: %v", spec.Name, rep)
	}
	return res.Spanner, nil
}

// fromScratch checks that a full build of g under spec's parameters
// reproduces the served fingerprint, and returns that spanner.
func (c *checks) fromScratch(ctx context.Context, rt *sched.Runtime, spec service.JobSpec, g *graph.Graph, wantFP string) (*graph.Graph, error) {
	p, err := specParams(spec, g.N())
	if err != nil {
		return nil, err
	}
	res, err := core.Build(ctx, g, p, core.Options{Mode: core.ModeDistributed, Engine: congest.EngineParallel, Runtime: rt})
	if err != nil {
		return nil, fmt.Errorf("from-scratch build: %w", err)
	}
	if _, fp := graph.Fingerprint(res.Spanner); fp != wantFP {
		c.failf("%s: last served fingerprint %s, from-scratch build of the tracked graph %s", spec.Name, wantFP, fp)
	}
	return res.Spanner, nil
}

// answers checks recorded answers against the spanner each job served:
// sampled distances must equal BFS distances, and every path must be a
// spanner path of the answered length between the queried endpoints.
func (c *checks) answers(recs []recorded, spanners map[string]*graph.Graph) {
	type key struct {
		job string
		u   int
	}
	bfs := map[key][]int32{}
	bad := 0
	for _, r := range recs {
		h := spanners[r.job]
		if h == nil {
			c.failf("answers: no spanner for job %s", r.job)
			return
		}
		if r.checkDist {
			k := key{r.job, r.u}
			lv, ok := bfs[k]
			if !ok {
				lv = h.BFS(r.u)
				bfs[k] = lv
			}
			want := lv[r.v]
			if want == graph.Infinity {
				want = -1
			}
			if r.dist != want {
				bad++
				if bad <= 3 {
					c.failf("job %s: dist(%d,%d) served %d, BFS on the spanner %d", r.job, r.u, r.v, r.dist, want)
				}
			}
		}
		if r.withPath {
			if err := validPath(h, r.u, r.v, r.dist, r.path); err != nil {
				bad++
				if bad <= 3 {
					c.failf("job %s: path %d-%d: %v", r.job, r.u, r.v, err)
				}
			}
		}
	}
	if bad > 3 {
		c.failf("answers: %d wrong answers in total", bad)
	}
}

// validPath checks that path is a walk of length d from u to v using
// only edges of g (no path when d is -1).
func validPath(g *graph.Graph, u, v int, d int32, path []int32) error {
	if d < 0 {
		if len(path) != 0 {
			return fmt.Errorf("path for an unreachable pair")
		}
		return nil
	}
	if len(path) != int(d)+1 {
		return fmt.Errorf("path has %d vertices for distance %d", len(path), d)
	}
	if int(path[0]) != u || int(path[len(path)-1]) != v {
		return fmt.Errorf("path runs %d..%d", path[0], path[len(path)-1])
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(int(path[i-1]), int(path[i])) {
			return fmt.Errorf("path uses absent edge {%d,%d}", path[i-1], path[i])
		}
	}
	return nil
}

// restart reopens the data dir the run wrote: store.Open → service.New
// → WaitReady is the timed recovery. Every job must come back done with
// the fingerprint it last served, recomputed from the recovered
// spanner. When keep is set the recovered spanners are returned.
func (c *checks) restart(ctx context.Context, dir string, procs int, want map[string]string, keep bool) (time.Duration, map[string]*graph.Graph, error) {
	start := time.Now()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return 0, nil, fmt.Errorf("restart: %w", err)
	}
	defer st.Close()
	srv := service.New(service.Options{Store: st, SchedWorkers: procs})
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Drain(drainCtx)
	if err := srv.WaitReady(ctx); err != nil {
		return 0, nil, fmt.Errorf("restart: %w", err)
	}
	took := time.Since(start)

	var spanners map[string]*graph.Graph
	if keep {
		spanners = make(map[string]*graph.Graph, len(want))
	}
	for id, fp := range want {
		job := srv.Job(id)
		if job == nil {
			c.failf("restart: job %s missing", id)
			continue
		}
		v := job.View()
		if v.State != service.StateDone || v.Result == nil || v.Result.Fingerprint != fp {
			c.failf("restart: job %s recovered as %s, want done with %s", id, v.State, fp)
			continue
		}
		h := job.QueryPool().Spanner()
		if _, got := graph.Fingerprint(h); got != fp {
			c.failf("restart: job %s recovered spanner %s, served %s", id, got, fp)
		}
		if keep {
			spanners[id] = h
		}
	}
	return took, spanners, nil
}
