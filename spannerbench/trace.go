package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/sched"
	"nearspan/internal/service"
	"nearspan/internal/store"
)

// span is one timed call at a layer boundary. Spans of one root
// operation share Op; Parent is the index of the enclosing span (-1 for
// a root). Times are nanoseconds since the traced phase began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; while on is false it records nothing.
type tracer struct {
	t0    time.Time
	on    bool
	op    int
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// call runs f inside a span and returns the span's duration.
func (t *tracer) call(name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

// rootStats sums one root-operation kind's durations with spans off
// ([0]) and on ([1]).
type rootStats struct {
	n   [2]int
	dur [2]time.Duration
}

// direct runs the traced replay: it feeds the workload's generated inputs
// straight into the layers' public functions.
type direct struct {
	ctx  context.Context
	seed uint64
	rt   *sched.Runtime
	st   *store.Store
	dir  string
	c    *checks
	tr   tracer

	roots map[string]*rootStats
	// primary names the core call the protocols.* metrics average over.
	primary string

	// served maps spec names to the fingerprints the HTTP run served.
	served map[string]string
	fps    map[string]string // job -> latest fingerprint written

	builds      []*buildFacts
	rebuilds    int
	incremental int
	tracked     []float64
	pool        *oracle.Pool
	poolStats   oracle.PoolStats
	pairsAsked  int64
	distByKey   map[[2]int]float64
	journalKiB  float64
}

// buildFacts are the exact counts of one traced full build.
type buildFacts struct {
	rounds, messages, maxTraffic, arena float64
}

// op runs one root operation twice on identical inputs, once with spans
// and once without; which pass goes first alternates per kind. f
// returns a digest of its outcome, and the two passes must agree. A
// batch fills the pool's source cache, so its two passes would not do
// the same work: batches run once, traced, and stay out of the overhead
// comparison.
func (d *direct) op(kind string, f func(root int) (string, error)) error {
	rs := d.roots[kind]
	if rs == nil {
		rs = &rootStats{}
		d.roots[kind] = rs
	}
	passes := []bool{true, false}
	switch {
	case kind == "batch":
		passes = passes[:1]
	case rs.n[1]%2 == 1:
		passes = []bool{false, true}
	}
	var digests []string
	for _, traced := range passes {
		d.tr.on = traced
		start := time.Now()
		root := -1
		if traced {
			d.tr.op++
			d.tr.spans = append(d.tr.spans, span{ID: len(d.tr.spans), Parent: -1, Op: d.tr.op, Name: "op." + kind, Start: int64(start.Sub(d.tr.t0))})
			root = len(d.tr.spans) - 1
		}
		digest, err := f(root)
		end := time.Now()
		if root >= 0 {
			d.tr.spans[root].End = int64(end.Sub(d.tr.t0))
		}
		d.tr.on = false
		if err != nil {
			return err
		}
		i := 0
		if traced {
			i = 1
		}
		rs.n[i]++
		rs.dur[i] += end.Sub(start)
		digests = append(digests, digest)
	}
	if len(digests) == 2 && digests[0] != digests[1] {
		d.c.failf("traced run: %s: traced and untraced passes disagree (%s vs %s)", kind, digests[0], digests[1])
	}
	return nil
}

// runCore calls a construction with OnStep turned into per-step spans:
// each protocol step's span runs from the previous step's end (or the
// call's start) to its own OnStep callback.
func (d *direct) runCore(name string, root int, call func(core.Options) (*core.Result, error)) (*core.Result, int64, error) {
	start := time.Now()
	var steps []struct {
		name string
		end  time.Time
	}
	var maxTraffic int64
	opts := core.Options{
		Mode: core.ModeDistributed, Engine: congest.EngineParallel, Runtime: d.rt, KeepRebuildState: true,
		OnStep: func(sm protocols.StepMetrics) {
			steps = append(steps, struct {
				name string
				end  time.Time
			}{sm.Step, time.Now()})
			maxTraffic = max(maxTraffic, sm.MaxRoundTraffic)
		},
	}
	res, err := call(opts)
	end := time.Now()
	if id := d.tr.add(name, root, start, end); id >= 0 {
		last := start
		for _, st := range steps {
			d.tr.add("protocols."+st.name, id, last, st.end)
			last = st.end
		}
	}
	return res, maxTraffic, err
}

// persist is the service's completion path: fingerprint, snapshot,
// journal record, query-pool attach.
func (d *direct) persist(root int, job, recType string, res *core.Result) (string, error) {
	var m int
	var fp string
	d.tr.call("graph.Fingerprint", root, func() { m, fp = graph.Fingerprint(res.Spanner) })
	var err error
	d.tr.call("store.WriteSnapshot", root, func() { err = d.st.WriteSnapshot(job, fp, res.Spanner) })
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(service.JobResult{Edges: m, TotalRounds: res.TotalRounds, Messages: res.Messages,
		Fingerprint: fp, ArenaBytes: res.ArenaBytes, Incremental: res.Incremental})
	if err != nil {
		return "", err
	}
	rec := store.Record{Type: recType, Job: job, Time: time.Now().UTC().Format(time.RFC3339Nano), Data: data}
	d.tr.call("store.Append", root, func() { err = d.st.Append(rec) })
	if err != nil {
		return "", err
	}
	var pool *oracle.Pool
	d.tr.call("oracle.NewPool", root, func() { pool = oracle.NewPool(res.Spanner, oracle.PoolOptions{}) })
	d.setPool(pool)
	d.fps[job] = fp
	return fp, nil
}

// setPool retires the current query pool into the aggregate counters.
func (d *direct) setPool(p *oracle.Pool) {
	if d.pool != nil {
		st := d.pool.Stats()
		d.poolStats.Misses += st.Misses
		d.poolStats.SourceRuns += st.SourceRuns
		d.poolStats.Batches += st.Batches
	}
	d.pool = p
}

// buildOp is one full build: gen → core.Build → persist.
func (d *direct) buildOp(spec service.JobSpec, job string) (*core.Result, *graph.Graph, error) {
	var res *core.Result
	var g *graph.Graph
	err := d.op("build", func(root int) (string, error) {
		var p *params.Params
		var err error
		d.tr.call("gen.graph", root, func() { g, p, err = materialize(spec) })
		if err != nil {
			return "", err
		}
		var maxTraffic int64
		res, maxTraffic, err = d.runCore("core.Build", root, func(o core.Options) (*core.Result, error) {
			return core.Build(d.ctx, g, p, o)
		})
		if err != nil {
			return "", err
		}
		if d.tr.on {
			d.builds = append(d.builds, &buildFacts{float64(res.TotalRounds), float64(res.Messages), float64(maxTraffic), float64(res.ArenaBytes)})
		}
		return d.persist(root, job, "done", res)
	})
	if err != nil {
		return nil, nil, err
	}
	if want, ok := d.served[spec.Name]; ok && want != d.fps[job] {
		d.c.failf("traced run: %s built %s directly, served %s over HTTP", spec.Name, d.fps[job], want)
	}
	return res, g, nil
}

// patchOp is one delta: delta.Apply → core.Rebuild → persist.
func (d *direct) patchOp(job string, prev *core.Result, g *graph.Graph, b *delta.Batch) (*core.Result, *graph.Graph, error) {
	var res *core.Result
	var g2 *graph.Graph
	err := d.op("patch", func(root int) (string, error) {
		var err error
		d.tr.call("delta.Apply", root, func() { g2, err = delta.Apply(g, b) })
		if err != nil {
			return "", err
		}
		res, _, err = d.runCore("core.Rebuild", root, func(o core.Options) (*core.Result, error) {
			return core.Rebuild(d.ctx, prev, b, o)
		})
		if err != nil {
			return "", err
		}
		if d.tr.on {
			d.rebuilds++
			if res.Incremental {
				d.incremental++
				d.tracked = append(d.tracked, float64(res.Tracked))
			}
		}
		return d.persist(root, job, "delta", res)
	})
	return res, g2, err
}

func (d *direct) queryOp(q pair, key [2]int) error {
	kind := "query"
	if q.path {
		kind = "path"
	}
	return d.op(kind, func(root int) (string, error) {
		var dist int32
		if q.path {
			d.tr.call("oracle.Path", root, func() { _, dist = d.pool.Path(q.u, q.v) })
		} else {
			took := d.tr.call("oracle.Dist", root, func() { dist = d.pool.Dist(q.u, q.v) })
			d.pairsAsked++
			if d.tr.on {
				d.distByKey[key] = us(took)
			}
		}
		return strconv.Itoa(int(dist)), nil
	})
}

func (d *direct) batchOp(pairs [][2]int) error {
	return d.op("batch", func(root int) (string, error) {
		var dists []int32
		d.tr.call("oracle.PairsBatch", root, func() { dists = d.pool.PairsBatch(pairs) })
		d.pairsAsked += int64(len(pairs))
		var sum int64
		for _, x := range dists {
			sum = sum*31 + int64(x)
		}
		return strconv.FormatInt(sum, 16), nil
	})
}

// recoverOp is the restart path: store.Open replays the journal, then
// every job's snapshot is loaded and verified.
func (d *direct) recoverOp() error {
	jobs := make([]string, 0, len(d.fps))
	for j := range d.fps {
		jobs = append(jobs, j)
	}
	sort.Strings(jobs)
	return d.op("recover", func(root int) (string, error) {
		var st *store.Store
		var err error
		d.tr.call("store.Open", root, func() { st, err = store.Open(store.Options{Dir: d.dir}) })
		if err != nil {
			return "", err
		}
		defer st.Close()
		for _, j := range jobs {
			d.tr.call("store.LoadSnapshot", root, func() { _, err = st.LoadSnapshot(j, d.fps[j]) })
			if err != nil {
				return "", err
			}
		}
		return strconv.Itoa(len(st.Recovered())), nil
	})
}

// Direct replays of the workloads. Query pairs, hot batches and deltas
// come from the same streams as the HTTP run, so the first queries of
// each stream hit the same spanners over the same pairs.

const (
	directQueriesPerBuild = 128
	directQueriesPerPatch = 32
	roadRebuilds          = 4
)

func (d *direct) build(deadline time.Time) error {
	d.primary = "core.Build"
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		spec := buildSpecAt(d.seed, i)
		job := fmt.Sprintf("b%04d", i)
		res, g, err := d.buildOp(spec, job)
		if err != nil {
			return err
		}
		ps := newPairStream(gnpN, mix(d.seed, streamPairs, uint64(i)))
		for q := range directQueriesPerBuild {
			if err := d.queryOp(ps.next(), [2]int{i, q}); err != nil {
				return err
			}
		}
		hot := newHotSource(gnpN, gnpHotPool, gnpBatchTargets, mix(d.seed, streamHot, uint64(i)))
		if err := d.batchOp(hot.next()); err != nil {
			return err
		}
		// One delta per build exercises the write-path layers.
		if _, _, err := d.patchOp(job, res, g, churnBatch(d.seed, i, g)); err != nil {
			return err
		}
	}
	return nil
}

func (d *direct) road(deadline time.Time) error {
	d.primary = "core.Build"
	res, g, err := d.buildOp(gridSpec("road-grid"), "grid")
	if err != nil {
		return err
	}
	pairs := newPairStream(gridSide*gridSide, mix(d.seed, streamPairs))
	hot := newHotSource(gridSide*gridSide, gridHotPool, gridBatchTargets, mix(d.seed, streamHot))
	for r := 0; r < 1 || time.Now().Before(deadline); r++ {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		for q := range gridQueriesPerRound {
			if err := d.queryOp(pairs.next(), [2]int{r, q}); err != nil {
				return err
			}
		}
		if err := d.batchOp(hot.next()); err != nil {
			return err
		}
	}
	// A few deltas on the grid exercise the write-path layers.
	for k := range roadRebuilds {
		if res, g, err = d.patchOp("grid", res, g, churnBatch(d.seed, k, g)); err != nil {
			return err
		}
	}
	return nil
}

func (d *direct) churn(deadline time.Time) error {
	d.primary = "core.Rebuild"
	var (
		specs []service.JobSpec
		res   []*core.Result
		gs    []*graph.Graph
	)
	for j := range churnJobs {
		spec := churnSpecAt(d.seed, j)
		r, g, err := d.buildOp(spec, spec.Name)
		if err != nil {
			return err
		}
		specs, res, gs = append(specs, spec), append(res, r), append(gs, g)
	}
	hot := newHotSource(gnpN, gnpHotPool, gnpBatchTargets, mix(d.seed, streamHot))
	// The warm-up deltas first, as in the HTTP run: i = -1 … -churnJobs.
	for i := -churnJobs; i < 2 || time.Now().Before(deadline); i++ {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		step := i
		if i < 0 {
			step = -churnJobs - 1 - i
		}
		j := (step%churnJobs + churnJobs) % churnJobs
		b := churnBatch(d.seed, step, gs[j])
		var err error
		if res[j], gs[j], err = d.patchOp(specs[j].Name, res[j], gs[j], b); err != nil {
			return err
		}
		ps := newPairStream(gnpN, mix(d.seed, streamPairs, uint64(step)))
		for q := range directQueriesPerPatch {
			p := ps.next()
			if q == 0 {
				p = pair{u: int(b.Delete[0].U), v: int(b.Delete[0].V), path: true}
			}
			if err := d.queryOp(p, [2]int{step, q}); err != nil {
				return err
			}
		}
		if err := d.batchOp(hot.next()); err != nil {
			return err
		}
	}
	for j, spec := range specs {
		if _, err := d.c.fromScratch(d.ctx, d.rt, spec, gs[j], d.fps[spec.Name]); err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the --trace 1 run: a short HTTP run for the service's
// figures, then the direct replay with spans.
func runTraced(ctx context.Context, cfg config, w workload, dir string, rt *sched.Runtime, out io.Writer) (*result, error) {
	o, err := runHTTP(ctx, cfg, w, filepath.Join(dir, "http"), rt, phasePlan{steps: stepsFor(w, cfg.seconds/4), setups: 1, restarts: 1})
	if err != nil {
		return nil, err
	}
	d := &direct{
		ctx: ctx, seed: cfg.seed, rt: rt, dir: filepath.Join(dir, "direct"), c: &o.checks,
		roots: map[string]*rootStats{}, served: map[string]string{}, fps: map[string]string{},
		distByKey: map[[2]int]float64{},
	}
	for _, v := range o.writeDocs {
		if _, ok := d.served[v.Name]; !ok && v.Result != nil && v.Result.Deltas == 0 {
			d.served[v.Name] = v.Result.Fingerprint
		}
	}
	if d.st, err = store.Open(store.Options{Dir: d.dir}); err != nil {
		return nil, err
	}
	defer func() {
		if d.st != nil {
			d.st.Close()
		}
	}()
	d.tr.t0 = time.Now()
	defer func() {
		if werr := writeSpans(cfg.spans, d.tr.spans); werr != nil {
			fmt.Fprintf(os.Stderr, "spannerbench: write spans: %v\n", werr)
		} else {
			fmt.Fprintf(out, "spans: %d written to %s\n", len(d.tr.spans), cfg.spans)
		}
	}()
	deadline := time.Now().Add(time.Duration(cfg.seconds * 0.75 * float64(time.Second)))
	if err := w.direct(d, deadline); err != nil {
		return nil, err
	}
	d.setPool(nil)
	d.journalKiB = float64(d.st.JournalBytes()) / 1024
	err = d.st.Close()
	d.st = nil
	if err != nil {
		return nil, err
	}
	if err := d.recoverOp(); err != nil {
		return nil, err
	}
	d.printSelfTimes(out)
	return &result{
		correct: o.checks.ok(), attempted: o.s.attempted, failed: o.s.failed,
		metrics: d.layerMetrics(o), failures: o.checks.failures,
		ruler: o.ruler, scaleNote: "per-layer times are raw",
	}, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each traced span's duration minus the part of it
// its children cover (children of one span never overlap here).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// printSelfTimes prints, per root-operation kind, the mean time per
// operation each layer spent in its own code, and the remainder no
// layer span covers (the benchmark's glue between calls).
func (d *direct) printSelfTimes(out io.Writer) {
	self := selfTimes(d.tr.spans)
	rootOf := make([]int, len(d.tr.spans))
	type acc struct {
		n      int
		total  time.Duration
		layers map[string]time.Duration
	}
	kinds := map[string]*acc{}
	for i, s := range d.tr.spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		root := d.tr.spans[rootOf[i]]
		a := kinds[root.Name]
		if a == nil {
			a = &acc{layers: map[string]time.Duration{}}
			kinds[root.Name] = a
		}
		if s.Parent < 0 {
			a.n++
			a.total += s.dur()
			a.layers["uncovered"] += self[i]
		} else {
			a.layers[layerOf(s.Name)] += self[i]
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(out, "# self time per root op (mean ms per op; uncovered = no layer span)")
	for _, k := range names {
		a := kinds[k]
		layers := make([]string, 0, len(a.layers))
		for l := range a.layers {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var parts []string
		for _, l := range layers {
			parts = append(parts, fmt.Sprintf("%s=%.4f", l, ms(a.layers[l])/float64(a.n)))
		}
		fmt.Fprintf(out, "%-12s n=%-6d total=%.4f %s\n", strings.TrimPrefix(k, "op."), a.n, ms(a.total)/float64(a.n), strings.Join(parts, " "))
	}
	var kindsSorted []string
	for k := range d.roots {
		kindsSorted = append(kindsSorted, k)
	}
	sort.Strings(kindsSorted)
	fmt.Fprintln(out, "# tracing overhead per root op (mean ms, spans off vs on)")
	for _, k := range kindsSorted {
		rs := d.roots[k]
		if rs.n[0] == 0 {
			continue
		}
		off := ms(rs.dur[0]) / float64(rs.n[0])
		on := ms(rs.dur[1]) / float64(rs.n[1])
		fmt.Fprintf(out, "%-12s off=%.4f on=%.4f overhead=%+.4f\n", k, off, on, on-off)
	}
}

// layerMetrics derives the per-layer metrics from the spans, the
// construction results and the HTTP run.
func (d *direct) layerMetrics(o *httpOutcome) []metric {
	durs := map[string][]float64{} // ms
	var primaryCalls int
	stepMS := map[string]float64{}
	for _, s := range d.tr.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		if s.Name == d.primary {
			primaryCalls++
		}
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "protocols.") && d.tr.spans[s.Parent].Name == d.primary {
			stepMS[s.Name] += ms(s.dur())
		}
	}
	meanMS := func(name string) float64 { return mean(durs[name]) }
	qUS := func(name string, q float64) float64 { return quantile(durs[name], q) * 1000 }
	count := func(name string) string { return fmt.Sprintf("%d calls", len(durs[name])) }

	var rounds, msgs, traffic, arena []float64
	for _, b := range d.builds {
		rounds = append(rounds, b.rounds)
		msgs = append(msgs, b.messages)
		traffic = append(traffic, b.maxTraffic)
		arena = append(arena, b.arena/(1<<20))
	}
	var totalMsgs float64
	for _, m := range msgs {
		totalMsgs += m
	}
	var buildSec float64
	for _, x := range durs["core.Build"] {
		buildSec += x / 1000
	}

	// The service's own figures, from the HTTP run's job documents.
	var buildMS, queueMS []float64
	for _, v := range o.writeDocs {
		if v.Result == nil {
			continue
		}
		buildMS = append(buildMS, float64(v.Result.BuildMS))
		if v.Result.Deltas == 0 {
			sub, err1 := time.Parse(time.RFC3339Nano, v.Submitted)
			st, err2 := time.Parse(time.RFC3339Nano, v.Started)
			if err1 == nil && err2 == nil {
				queueMS = append(queueMS, ms(st.Sub(sub)))
			}
		}
	}
	var httpUS, oracleUS []float64
	for k, h := range o.s.pointLat {
		if x, ok := d.distByKey[k]; ok {
			httpUS = append(httpUS, h)
			oracleUS = append(oracleUS, x)
		}
	}

	var rootOff, rootOn time.Duration
	for _, rs := range d.roots {
		if rs.n[0] > 0 {
			rootOff += rs.dur[0]
			rootOn += rs.dur[1]
		}
	}
	self := selfTimes(d.tr.spans)
	var uncovered, rootTotal time.Duration
	for i, s := range d.tr.spans {
		if s.Parent < 0 {
			uncovered += self[i]
			rootTotal += s.dur()
		}
	}

	hitBase := fmt.Sprintf("1 - %d misses / %d pairs", d.poolStats.Misses, d.pairsAsked)
	m := []metric{
		{"service.job_build_ms_p50", quantile(buildMS, 0.5), "ms", fmt.Sprintf("result.build_ms of %d job documents", len(buildMS))},
		{"service.queue_wait_ms_p50", quantile(queueMS, 0.5), "ms", fmt.Sprintf("started_at - submitted_at of %d builds", len(queueMS))},
		{"service.query_overhead_us_p50", quantile(httpUS, 0.5) - quantile(oracleUS, 0.5), "us", fmt.Sprintf("HTTP p50 - oracle.Dist p50 over %d shared pairs", len(httpUS))},
		{"gen.graph_ms", meanMS("gen.graph"), "ms", count("gen.graph")},
		{"graph.fingerprint_ms", meanMS("graph.Fingerprint"), "ms", count("graph.Fingerprint")},
		{"core.build_ms", meanMS("core.Build"), "ms", count("core.Build")},
		{"core.rebuild_ms", meanMS("core.Rebuild"), "ms", count("core.Rebuild")},
		{"core.rebuild_tracked", mean(d.tracked), "vertices", fmt.Sprintf("mean over %d incremental rebuilds", len(d.tracked))},
		{"core.rebuild_incremental_ratio", float64(d.incremental) / float64(d.rebuilds), "ratio", fmt.Sprintf("%d incremental of %d rebuilds", d.incremental, d.rebuilds)},
	}
	for _, step := range []string{protocols.StepNearNeighbors, protocols.StepRulingSet, protocols.StepForest, protocols.StepForestPaths, protocols.StepInterconnect} {
		m = append(m, metric{"protocols." + step + "_ms", stepMS["protocols."+step] / float64(primaryCalls), "ms",
			fmt.Sprintf("per %s call, %d calls", d.primary, primaryCalls)})
	}
	m = append(m,
		metric{"congest.rounds", mean(rounds), "rounds", fmt.Sprintf("mean of %d builds", len(rounds))},
		metric{"congest.messages", mean(msgs), "msgs", fmt.Sprintf("mean of %d builds", len(msgs))},
		metric{"congest.max_round_traffic", mean(traffic), "msgs", "busiest round per build, mean"},
		metric{"congest.arena_mib", mean(arena), "MiB", "Result.ArenaBytes, mean"},
		metric{"congest.messages_per_s", totalMsgs / buildSec, "msgs/s", "messages / core.Build time"},
		metric{"delta.apply_ms", meanMS("delta.Apply"), "ms", count("delta.Apply")},
		metric{"store.append_us_p50", qUS("store.Append", 0.5), "us", count("store.Append")},
		metric{"store.snapshot_write_ms_p50", quantile(durs["store.WriteSnapshot"], 0.5), "ms", count("store.WriteSnapshot")},
		metric{"store.snapshot_load_ms", meanMS("store.LoadSnapshot"), "ms", count("store.LoadSnapshot")},
		metric{"store.journal_kib", d.journalKiB, "KiB", "journal size after the traced run"},
		metric{"oracle.pool_attach_us", meanMS("oracle.NewPool") * 1000, "us", count("oracle.NewPool")},
		metric{"oracle.dist_us_p50", qUS("oracle.Dist", 0.5), "us", count("oracle.Dist")},
		metric{"oracle.dist_us_p99", qUS("oracle.Dist", 0.99), "us", count("oracle.Dist") + supportNote(len(durs["oracle.Dist"]), 0.99)},
		metric{"oracle.path_us_p50", qUS("oracle.Path", 0.5), "us", count("oracle.Path")},
		metric{"oracle.batch_us_p50", qUS("oracle.PairsBatch", 0.5), "us", count("oracle.PairsBatch")},
		metric{"oracle.cache_hit_ratio", 1 - float64(d.poolStats.Misses)/float64(d.pairsAsked), "ratio", hitBase},
		metric{"oracle.source_bfs_runs", float64(d.poolStats.SourceRuns) / float64(d.poolStats.Batches), "runs/batch",
			fmt.Sprintf("%d full BFS runs / %d batches", d.poolStats.SourceRuns, d.poolStats.Batches)},
		metric{"trace.overhead_ratio", ms(rootOn)/ms(rootOff) - 1, "ratio", fmt.Sprintf("root ops %.1f ms traced vs %.1f ms untraced", ms(rootOn), ms(rootOff))},
		metric{"trace.uncovered_ratio", float64(uncovered) / float64(rootTotal), "ratio", fmt.Sprintf("%.1f of %.1f ms outside layer spans", ms(uncovered), ms(rootTotal))},
	)
	return m
}

func supportNote(n int, q float64) string {
	if supported(n, q) {
		return ""
	}
	return " (fewer than 10 samples beyond it)"
}
