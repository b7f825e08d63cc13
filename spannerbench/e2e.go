package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"nearspan/internal/sched"
	"nearspan/internal/service"
)

// maxPhase bounds the timed phase: a run whose steps take longer fails
// rather than overrun its time limit.
const maxPhase = 100 * time.Second

// phasePlan sizes one HTTP run.
type phasePlan struct {
	steps  int
	setups int
	// restarts is the minimum number of restarts; more follow, up to
	// maxRestarts, until they have taken restartTime in all.
	restarts    int
	restartTime time.Duration
}

const maxRestarts = 50

// stepsFor is the number of timed steps a workload runs for the given
// seconds: at least enough for op_ms_p75 to have 10 samples beyond it.
func stepsFor(w workload, seconds float64) int {
	least := (minSamples(0.75) + w.opsPerStep - 1) / w.opsPerStep
	return max(least, int(math.Ceil(w.rate*seconds)))
}

// httpOutcome is what one HTTP run measured and checked.
type httpOutcome struct {
	s        *session // closed; its tallies remain
	setupS   []float64
	recoverS []float64
	rssMiB   float64
	ruler    *ruler
	// writeDocs are the job documents write requests returned before
	// the checks began.
	writeDocs []service.JobView
	checks    checks
}

// runHTTP drives one in-process spannerd through set-up, the timed
// closed-loop phase, the output checks and the restarts.
func runHTTP(ctx context.Context, cfg config, w workload, dir string, rt *sched.Runtime, plan phasePlan) (*httpOutcome, error) {
	out := &httpOutcome{ruler: newRuler()}
	var s *session
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	// Set-up, repeated; the last one stays up for the timed phase.
	for k := range plan.setups {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("drain set-up %d: %w", k-1, err)
			}
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, err
			}
			s = nil
			runtime.GC()
		}
		out.ruler.measure()
		start := time.Now()
		ns, err := newSession(ctx, cfg.seed, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), cfg.procs)
		if err != nil {
			return nil, err
		}
		s = ns
		if err := w.setup(s); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		runtime.GC()
	}
	if err := w.warm(s); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	// Timed phase: one closed-loop client, nothing else running but the
	// reference kernel between steps.
	s.timing = true
	start := time.Now()
	every := max(1, plan.steps/16)
	for i := 0; i < plan.steps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i%every == 0 {
			out.ruler.measure()
		}
		if time.Since(start) > maxPhase {
			return nil, fmt.Errorf("timed phase: %d of %d steps done after %v", i, plan.steps, maxPhase)
		}
		if err := w.step(s, i); err != nil {
			return nil, err
		}
	}
	out.ruler.measure()
	s.timing = false
	out.rssMiB = peakRSSMiB()
	out.writeDocs = slices.Clone(s.docs)
	runtime.GC()

	// Checks against the live server.
	c := &out.checks
	c.failures = append(c.failures, s.inline...)
	if err := c.golden(s, cfg.golden); err != nil {
		return nil, err
	}
	spanners, err := w.check(s, ctx, c, rt)
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	out.s = s
	runtime.GC()

	// Restarts on the data dir the run wrote.
	var restartTotal time.Duration
	for r := 0; r < plan.restarts || (r < maxRestarts && restartTotal < plan.restartTime); r++ {
		out.ruler.measure()
		took, recovered, err := c.restart(ctx, filepath.Join(s.dir, "data"), cfg.procs, s.fps, r == 0 && spanners == nil)
		if err != nil {
			return nil, err
		}
		if r == 0 && spanners == nil {
			spanners = recovered
		}
		out.recoverS = append(out.recoverS, took.Seconds())
		restartTotal += took
		runtime.GC()
	}
	c.answers(s.answers, spanners)
	return out, nil
}

// e2eMetrics turns an HTTP run into the end-to-end metrics. Times are
// scaled to the nominal machine (see calib.go); each note gives the raw
// figure.
func e2eMetrics(w workload, o *httpOutcome) []metric {
	s := o.s
	var rounds, msgs, edges []float64
	for _, r := range s.builds {
		rounds = append(rounds, float64(r.TotalRounds))
		msgs = append(msgs, float64(r.Messages))
		edges = append(edges, float64(r.Edges))
	}
	f := o.ruler.factor()
	scaled := func(name string, raw float64, unit, what string) metric {
		return metric{name, raw * f, unit, fmt.Sprintf("raw %.6g, %s", raw, what)}
	}
	perSecond := func(name string, raw float64, unit, what string) metric {
		return metric{name, raw / f, unit, fmt.Sprintf("raw %.6g, %s", raw, what)}
	}
	return []metric{
		scaled("setup_s", quantile(o.setupS, 0.5), "s", fmt.Sprintf("median of %d set-ups", len(o.setupS))),
		scaled("op_ms_p50", quantile(s.opLat, 0.5), "ms", fmt.Sprintf("p50 of %d %s", len(s.opLat), w.primary)),
		scaled("op_ms_p75", quantile(s.opLat, 0.75), "ms", fmt.Sprintf("p75 of %d %s", len(s.opLat), w.primary)),
		scaled("query_us_p50", quantile(s.queryLat, 0.5), "us", fmt.Sprintf("p50 of %d point queries", len(s.queryLat))),
		scaled("query_us_p90", quantile(s.queryLat, 0.9), "us", fmt.Sprintf("p90 of %d point queries", len(s.queryLat))),
		perSecond("batch_pairs_per_s", float64(s.batchSize)/quantile(s.batchLat, 0.5)*1e6, "pairs/s",
			fmt.Sprintf("%d pairs / p50 of %d batch requests", s.batchSize, len(s.batchLat))),
		scaled("recover_s", quantile(o.recoverS, 0.5), "s", fmt.Sprintf("median of %d restarts, %d jobs", len(o.recoverS), len(s.fps))),
		{"rss_peak_mib", o.rssMiB, "MiB", "VmHWM after the timed phase"},
		{"congest_rounds", mean(rounds), "rounds", fmt.Sprintf("mean of %d builds", len(rounds))},
		{"congest_messages", mean(msgs), "msgs", fmt.Sprintf("mean of %d builds", len(msgs))},
		{"spanner_edges", mean(edges), "edges", fmt.Sprintf("mean of %d builds", len(edges))},
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		var kb float64
		for _, line := range strings.Split(string(raw), "\n") {
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
