// Package oracle layers an approximate distance oracle over a
// near-additive spanner — the application that motivated near-additive
// spanners in the first place (almost-shortest-paths computation,
// [Elk01/Elk05], and distance oracles [TZ01/RTZ05] in the paper's
// citations).
//
// The oracle precomputes the spanner once and answers distance queries
// with BFS over H instead of G. Because H has O(β·n^{1+1/κ}) edges, a
// query costs O(|E_H|) instead of O(|E_G|) — on dense graphs an
// order-of-magnitude less traversal work — while every answer carries
// the paper's guarantee
//
//	d_G(u,v) <= Dist(u,v) <= (1+ε)·d_G(u,v) + β.
//
// Oracle is Pool plus the input graph and parameters behind the
// guarantee: queries go to the embedded Pool — lock-free sharded
// reads, a shared source cache, batch grouping, and a
// bidirectional-BFS point-query fast path — so an Oracle is safe for
// concurrent use.
package oracle

import (
	"context"
	"fmt"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// Oracle answers approximate distance queries over a preprocessed graph
// through its embedded Pool (Dist, Sources, Path, PairsBatch, Stats).
// It adds only what the pool cannot know: the input graph and the
// spanner parameters, for Guarantee and EdgeSavings.
type Oracle struct {
	*Pool
	g *graph.Graph
	p *params.Params
}

// Options configure the oracle.
type Options struct {
	// Eps, Kappa, Rho are the spanner parameters (see params.New).
	Eps   float64
	Kappa int
	Rho   float64
	// CacheSources bounds the pool's source cache (see
	// PoolOptions.CacheSources).
	CacheSources int
	// Mode selects the spanner construction backend (zero =
	// centralized, the fast default). Both modes build the identical
	// spanner; distributed mode additionally exercises the real CONGEST
	// protocol stack during preprocessing.
	Mode core.Mode
	// Engine selects the CONGEST engine when Mode is distributed.
	Engine congest.Engine
}

// New preprocesses g into an oracle.
func New(g *graph.Graph, opts Options) (*Oracle, error) {
	p, err := params.New(opts.Eps, opts.Kappa, opts.Rho, g.N())
	if err != nil {
		return nil, err
	}
	res, err := core.Build(context.Background(), g, p, core.Options{Mode: opts.Mode, Engine: opts.Engine})
	if err != nil {
		return nil, err
	}
	return FromSpanner(g, res, opts.CacheSources)
}

// FromSpanner wraps an already-built spanner (e.g. from a distributed
// run) in an oracle whose pool caches up to cacheSources sources.
func FromSpanner(g *graph.Graph, res *core.Result, cacheSources int) (*Oracle, error) {
	if res.Spanner.N() != g.N() {
		return nil, fmt.Errorf("oracle: spanner for n=%d, graph n=%d", res.Spanner.N(), g.N())
	}
	return &Oracle{
		Pool: NewPool(res.Spanner, PoolOptions{CacheSources: cacheSources}),
		g:    g,
		p:    res.Params,
	}, nil
}

// Guarantee returns the oracle's error bound (alpha, beta):
// answers satisfy d_G <= answer <= alpha*d_G + beta.
func (o *Oracle) Guarantee() (alpha float64, beta int32) {
	return 1 + o.p.EpsPrime(), o.p.BetaInt()
}

// EdgeSavings returns |E_G| - |E_H|, the per-query traversal saving.
func (o *Oracle) EdgeSavings() int { return o.g.M() - o.Spanner().M() }
