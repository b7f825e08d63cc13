package main

import (
	"fmt"

	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/rng"
	"nearspan/internal/service"
)

// Input sizes and spanner parameters shared by every workload.
const (
	gnpN     = 2048
	gnpDeg   = 20.0
	gridSide = 200

	// Point queries that follow each build (build) or patch (churn);
	// every pathEvery-th point query asks for the path too.
	queriesPerBuild = 32
	queriesPerPatch = 8
	pathEvery       = 8

	// A hot-source batch: batchSources sources drawn from the hot pool,
	// each with the given number of uniform targets.
	batchSources     = 4
	gnpBatchTargets  = 16
	gridBatchTargets = 32
	gridHotPool      = 48 // fewer than the oracle's 64 cache slots: once filled, batches hit
	gnpHotPool       = 8

	// Point queries per road-query round; the round ends with one batch.
	gridQueriesPerRound = 31

	// Operations per churn delta batch: this many deletes plus as many
	// inserts.
	churnHalfBatch = 4
)

const (
	specEps   = 1.0 / 3
	specKappa = 3
	specRho   = 0.49
)

// Seed streams: every generator seed of a run is mix(workload seed,
// stream, index), so the inputs depend on the workload seed alone.
const (
	streamBuildSpec uint64 = iota + 1
	streamWarmSpec
	streamPairs
	streamHot
	streamDelta
	streamSetupSpec
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(xs ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, x := range xs {
		h = splitmix(h ^ x)
	}
	return h
}

func gnpSpec(name string, seed uint64) service.JobSpec {
	return service.JobSpec{
		Name:  name,
		Graph: service.GraphSpec{Type: "gnp", N: gnpN, P: gnpDeg / (gnpN - 1), Seed: seed, Connected: true},
		Eps:   specEps, Kappa: specKappa, Rho: specRho,
	}
}

func gridSpec(name string) service.JobSpec {
	return service.JobSpec{
		Name:  name,
		Graph: service.GraphSpec{Type: "grid", Rows: gridSide, Cols: gridSide},
		Eps:   specEps, Kappa: specKappa, Rho: specRho,
	}
}

// goldenSpec is the gnp-256 fixture of testdata/golden_spanners.json,
// built through the service's defaults (distributed, parallel engine).
func goldenSpec() service.JobSpec {
	return service.JobSpec{
		Name:  "golden-gnp-256",
		Graph: service.GraphSpec{Type: "gnp", N: 256, P: 16.0 / 256, Seed: 256, Connected: true},
		Eps:   specEps, Kappa: specKappa, Rho: specRho,
	}
}

// materialize builds the input graph and parameter schedule of a spec
// the same way the service does, for the out-of-band checks and the
// traced run.
func materialize(spec service.JobSpec) (*graph.Graph, *params.Params, error) {
	var g *graph.Graph
	switch gs := spec.Graph; gs.Type {
	case "gnp":
		g = gen.StreamGNP(gs.N, gs.P, gs.Seed, gs.Connected).Graph()
	case "grid":
		g = gen.StreamGrid(gs.Rows, gs.Cols).Graph()
	default:
		return nil, nil, fmt.Errorf("materialize: unsupported graph type %q", gs.Type)
	}
	p, err := specParams(spec, g.N())
	if err != nil {
		return nil, nil, err
	}
	return g, p, nil
}

func specParams(spec service.JobSpec, n int) (*params.Params, error) {
	p, err := params.New(spec.Eps, spec.Kappa, spec.Rho, n)
	if err != nil {
		return nil, fmt.Errorf("params of %s: %w", spec.Name, err)
	}
	return p, nil
}

// pair is one distance query; path asks for the route too.
type pair struct {
	u, v int
	path bool
}

// pairStream yields uniform random distinct-endpoint pairs over n
// vertices; every pathEvery-th pair is a path query.
type pairStream struct {
	r *rng.RNG
	n int
	i int
}

func newPairStream(n int, seed uint64) *pairStream {
	return &pairStream{r: rng.New(seed), n: n}
}

func (ps *pairStream) next() pair {
	u := ps.r.Intn(ps.n)
	v := ps.r.Intn(ps.n - 1)
	if v >= u {
		v++
	}
	ps.i++
	return pair{u: u, v: v, path: ps.i%pathEvery == 0}
}

// hotSource draws NDJSON batches whose pairs cluster on a few sources
// of a fixed hot pool.
type hotSource struct {
	r       *rng.RNG
	n       int
	pool    []int
	targets int
}

func newHotSource(n, poolSize, targets int, seed uint64) *hotSource {
	r := rng.New(seed)
	return &hotSource{r: r, n: n, pool: r.Perm(n)[:poolSize], targets: targets}
}

func (h *hotSource) next() [][2]int {
	out := make([][2]int, 0, batchSources*h.targets)
	for _, k := range h.r.Perm(len(h.pool))[:batchSources] {
		src := h.pool[k]
		for range h.targets {
			out = append(out, [2]int{src, h.r.Intn(h.n)})
		}
	}
	return out
}

// churnBatch is the i-th delta of a churn run against the current
// graph: churnHalfBatch deletes of existing edges and as many inserts of
// absent ones.
func churnBatch(seed uint64, i int, g *graph.Graph) *delta.Batch {
	return delta.RandomBatch(g, churnHalfBatch, mix(seed, streamDelta, uint64(i)))
}
