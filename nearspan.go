// Package nearspan constructs sparse (1+ε, β) near-additive spanners of
// unweighted undirected graphs with the deterministic CONGEST-model
// algorithm of Elkin & Matar (PODC 2019), together with the randomized
// and centralized baselines it is compared against, a full CONGEST round
// simulator, and verification tooling.
//
// # Quick start
//
//	g := nearspan.Grid(32, 32)
//	res, err := nearspan.BuildSpanner(g, nearspan.Config{
//		Eps: 0.5, Kappa: 4, Rho: 0.45,
//	})
//	if err != nil { ... }
//	fmt.Println(res.EdgeCount(), "of", g.M(), "edges kept")
//	alpha, beta := res.Params.Guarantee()
//	rep := nearspan.VerifyStretch(g, res.Spanner, alpha, beta)
//	fmt.Println("stretch ok:", rep.OK())
//	pool := nearspan.NewOraclePool(res.Spanner, nearspan.OraclePoolOptions{})
//	fmt.Println("d(0, 1023) <=", pool.Dist(0, 1023))
//
// The spanner satisfies d_H(u,v) <= alpha·d_G(u,v) + beta for every
// vertex pair, with (alpha, beta) = (1+ε', β) as in the paper's
// Corollary 2.18 — the bound every OraclePool answer over it carries;
// res.TotalRounds reports the CONGEST rounds consumed when built in
// DistributedMode.
//
// The deeper layers are exposed for experimentation: the CONGEST
// simulator and node programs live in internal packages and surface
// through the spanner construction modes; graph generators and stretch
// verification are re-exported here.
package nearspan

import (
	"context"
	"fmt"
	"io"

	"nearspan/internal/baseline"
	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/verify"
)

// Graph is an immutable simple undirected graph in CSR form. Build one
// with NewBuilder or the generators below.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Params is the validated parameter set and derived phase schedule.
type Params = params.Params

// Result is the outcome of a spanner construction.
type Result = core.Result

// PhaseStats records one phase's measurements.
type PhaseStats = core.PhaseStats

// StepMetrics records one protocol session's rounds, messages, and peak
// round traffic on the persistent network; Result.Steps holds the
// stream, one entry per protocol step in execution order.
type StepMetrics = protocols.StepMetrics

// StretchReport summarizes a stretch verification.
type StretchReport = verify.StretchReport

// Mode selects how the construction executes.
type Mode = core.Mode

// Execution modes: CentralizedMode runs the fast reference
// implementation; DistributedMode runs the full CONGEST protocol stack
// and measures rounds. Both produce the identical spanner.
const (
	CentralizedMode = core.ModeCentralized
	DistributedMode = core.ModeDistributed
)

// Config configures BuildSpanner.
type Config struct {
	// Eps is the paper's internal ε (0 < ε <= 1): the phase distance
	// scale. Smaller ε gives better multiplicative stretch and a larger
	// additive term β = ε^{-ℓ}. If TargetEpsPrime is set, Eps is derived
	// instead.
	Eps float64
	// TargetEpsPrime, when positive, requests a final multiplicative
	// stretch of 1+TargetEpsPrime and derives ε by the paper's §2.4.4
	// rescaling.
	TargetEpsPrime float64
	// Kappa (κ >= 2) controls spanner size: O(β·n^{1+1/κ}) edges.
	Kappa int
	// Rho (1/κ <= ρ < 1/2) controls the round budget: O(β·n^ρ/ρ).
	Rho float64
	// Mode selects the execution backend (default CentralizedMode).
	Mode Mode
	// KeepClusters retains per-phase cluster collections in the result
	// (one int32 center column per P_i and U_i); the construction itself
	// carries only the center lists.
	KeepClusters bool
	// OnStep, when set, receives each protocol step's metrics as it
	// completes — a progress stream for long builds. It is called
	// synchronously on the building goroutine, in execution order, in
	// both modes (centralized steps report their schedule budgets with
	// zero messages).
	OnStep func(StepMetrics)
	// RoundBudget, when positive, bounds the build's rounds: a build
	// succeeds if and only if its TotalRounds <= RoundBudget, in both
	// modes and for RebuildSpanner too. A build that does not fit aborts
	// — at a step or round boundary, never yielding a partial spanner —
	// with an error whose chain carries a *congest.ErrBudgetExhausted
	// (with the in-flight message histogram when the cut lands inside a
	// DistributedMode session). This is the per-job round cap of the
	// build service.
	RoundBudget int
	// KeepRebuildState retains the per-phase state (center sets,
	// near-neighbors tables, forward transcripts) that RebuildSpanner
	// replays against. Costs memory proportional to the stored tables;
	// required on a result before it can seed a delta rebuild.
	KeepRebuildState bool
}

// BuildSpanner constructs a (1+ε', β)-spanner of g.
func BuildSpanner(g *Graph, cfg Config) (*Result, error) {
	return BuildSpannerContext(context.Background(), g, cfg)
}

// BuildSpannerContext is BuildSpanner with cancellation: the context is
// checked at every simulated round boundary (DistributedMode) and every
// protocol step (CentralizedMode), so a cancelled or expired context
// aborts the construction promptly and returns the context's error
// (errors.Is-matchable). A cancelled build never yields a partial
// spanner. For building many graphs concurrently, see BuildBatch.
func BuildSpannerContext(ctx context.Context, g *Graph, cfg Config) (*Result, error) {
	p, err := cfg.params(g.N())
	if err != nil {
		return nil, err
	}
	return core.Build(ctx, g, p, cfg.options())
}

// options renders the configuration as core build options.
func (cfg Config) options() core.Options {
	return core.Options{
		Mode:             cfg.Mode,
		KeepClusters:     cfg.KeepClusters,
		OnStep:           cfg.OnStep,
		RoundBudget:      cfg.RoundBudget,
		KeepRebuildState: cfg.KeepRebuildState,
	}
}

// DeltaEdge is one undirected edge of a delta batch.
type DeltaEdge = delta.Edge

// DeltaBatch is an edge delta — insertions and deletions applied
// atomically to a previously built graph by RebuildSpanner.
type DeltaBatch = delta.Batch

// RebuildSpanner constructs the spanner of prev's graph patched by
// batch, reusing prev's retained state (Config.KeepRebuildState): the
// near-neighbors tables — the dominant build cost — are recomputed only
// on the dirty frontier the delta perturbs, and the cheap steps re-run
// on the patched graph. The result is bit-identical to BuildSpanner on
// the patched graph, however large the batch: the replay's cost grows
// with the frontier it tracks, and no batch falls back to a full build
// (docs/ARCHITECTURE.md measures why). Result.Incremental is set on
// every rebuild result, and Result.Tracked reports how many vertices
// were replayed. Rebuild results retain state themselves, so
// rebuilds chain across a churn sequence.
func RebuildSpanner(prev *Result, batch *DeltaBatch, cfg Config) (*Result, error) {
	return RebuildSpannerContext(context.Background(), prev, batch, cfg)
}

// RebuildSpannerContext is RebuildSpanner with cancellation, observed at
// the same boundaries as BuildSpannerContext.
func RebuildSpannerContext(ctx context.Context, prev *Result, batch *DeltaBatch, cfg Config) (*Result, error) {
	return core.Rebuild(ctx, prev, batch, cfg.options())
}

// params resolves the parameter schedule from the configuration.
func (cfg Config) params(n int) (*Params, error) {
	switch {
	case cfg.TargetEpsPrime > 0:
		return params.FromTarget(cfg.TargetEpsPrime, cfg.Kappa, cfg.Rho, n)
	case cfg.Eps > 0:
		return params.New(cfg.Eps, cfg.Kappa, cfg.Rho, n)
	default:
		return nil, fmt.Errorf("nearspan: set Config.Eps or Config.TargetEpsPrime")
	}
}

// NewParams exposes the parameter derivation for callers that want to
// inspect the schedule (ℓ, deg_i, δ_i, β) before building.
func NewParams(eps float64, kappa int, rho float64, n int) (*Params, error) {
	return params.New(eps, kappa, rho, n)
}

// VerifyStretch measures the (alpha, beta) stretch of h against g
// exactly, over all connected pairs.
func VerifyStretch(g, h *Graph, alpha float64, beta int32) StretchReport {
	return verify.Stretch(g, h, alpha, beta)
}

// VerifyStretchSampled measures stretch from a deterministic sample of
// BFS sources, for graphs too large for the exact check.
func VerifyStretchSampled(g, h *Graph, alpha float64, beta int32, samples int, seed uint64) StretchReport {
	return verify.StretchSampled(g, h, alpha, beta, samples, seed)
}

// IsSubgraph reports whether h's edges all exist in g.
func IsSubgraph(h, g *Graph) bool { return verify.Subgraph(h, g) }

// Baseline constructions, for comparison studies. See the experiments
// binary for the full Table 1 / Table 2 harness.

// BuildEN17 constructs the randomized Elkin–Neiman (SODA 2017) spanner.
func BuildEN17(g *Graph, eps float64, kappa int, rho float64, seed uint64) (*baseline.EN17Result, error) {
	p, err := baseline.NewSchedule(eps, kappa, rho, g.N())
	if err != nil {
		return nil, err
	}
	return baseline.BuildEN17(g, p, seed)
}

// BuildEP01 constructs the centralized Elkin–Peleg (STOC 2001) spanner.
func BuildEP01(g *Graph, eps float64, kappa int, rho float64) (*baseline.EP01Result, error) {
	p, err := baseline.NewSchedule(eps, kappa, rho, g.N())
	if err != nil {
		return nil, err
	}
	return baseline.BuildEP01(g, p)
}

// BuildBaswanaSen constructs a (2κ−1)-multiplicative spanner.
func BuildBaswanaSen(g *Graph, kappa int, seed uint64) (*Graph, error) {
	return baseline.BuildBaswanaSen(g, kappa, seed)
}

// BuildGreedy constructs the greedy (2κ−1)-multiplicative spanner.
func BuildGreedy(g *Graph, kappa int) (*Graph, error) {
	return baseline.BuildGreedy(g, kappa)
}

// Infinity is the distance returned for disconnected vertex pairs.
const Infinity = graph.Infinity

// OraclePool is the concurrent high-QPS query tier over an immutable
// spanner: N lock-free read replicas with preallocated BFS workspaces,
// a shared once-filled source cache, a bidirectional fast path for
// point queries, and a batch API that groups queries by source. All
// methods are safe for concurrent use and answers are exact spanner
// distances, bit-identical across replica counts and query paths.
type OraclePool = oracle.Pool

// OraclePoolOptions configure NewOraclePool.
type OraclePoolOptions = oracle.PoolOptions

// OraclePoolStats is a snapshot of a pool's counters.
type OraclePoolStats = oracle.PoolStats

// NewOraclePool builds a query pool over a spanner (for example
// Result.Spanner). The spanner must not be mutated afterwards. Answers
// over a Result's spanner carry its Result.Params.Guarantee.
func NewOraclePool(spanner *Graph, opts OraclePoolOptions) *OraclePool {
	return oracle.NewPool(spanner, opts)
}

// Graph generators (deterministic given their seeds).

// Path returns the n-vertex path graph.
func Path(n int) *Graph { return gen.Path(n) }

// Cycle returns the n-vertex cycle graph.
func Cycle(n int) *Graph { return gen.Cycle(n) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// Torus returns the rows×cols torus graph.
func Torus(rows, cols int) *Graph { return gen.Torus(rows, cols) }

// Hypercube returns the d-dimensional hypercube graph.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// GNP returns an Erdős–Rényi G(n, p) graph, built through StreamGNP.
func GNP(n int, p float64, seed uint64, ensureConnected bool) *Graph {
	return gen.StreamGNP(n, p, seed, ensureConnected).Graph()
}

// RandomRegular returns a (near-)d-regular graph.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return gen.RandomRegular(n, d, seed)
}

// PreferentialAttachment returns a Barabási–Albert-style graph.
func PreferentialAttachment(n, m int, seed uint64) (*Graph, error) {
	return gen.PreferentialAttachment(n, m, seed)
}

// Communities returns a planted-partition graph with k communities of
// commSize vertices, built through StreamCommunities.
func Communities(k, commSize int, pIn, pOut float64, seed uint64) *Graph {
	return gen.StreamCommunities(k, commSize, pIn, pOut, seed).Graph()
}

// RandomTree returns a uniform random attachment tree.
func RandomTree(n int, seed uint64) *Graph { return gen.RandomTree(n, seed) }

// RandomGeometric returns a random geometric graph on n points in the
// unit square with the given connection radius.
func RandomGeometric(n int, radius float64, seed uint64, ensureConnected bool) *Graph {
	return gen.RandomGeometric(n, radius, seed, ensureConnected)
}

// ReadEdgeList parses the whitespace edge-list format (header "n m",
// one "u v" line per edge; '#' comments allowed).
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// Streaming generators, for graphs too large for a builder. An
// EdgeStream knows the exact vertex count, edge count, and degree
// sequence of its graph before the CSR exists, and replays its sorted
// edge sequence as many times as asked; EdgeStream.Graph builds the CSR
// in a single allocation and a single fill pass. The random kinds draw
// their pairs once, at construction, and keep each edge's larger
// endpoint (4 B per edge); the lattices keep nothing. A streamed
// generator yields the bit-identical graph to its materialized
// counterpart with the same parameters.

// EdgeStream is a replayable sorted edge sequence with known counts.
type EdgeStream = gen.EdgeStream

// StreamGNP is the streaming form of GNP.
func StreamGNP(n int, p float64, seed uint64, ensureConnected bool) *EdgeStream {
	return gen.StreamGNP(n, p, seed, ensureConnected)
}

// StreamGrid is the streaming form of Grid.
func StreamGrid(rows, cols int) *EdgeStream { return gen.StreamGrid(rows, cols) }

// StreamTorus is the streaming form of Torus.
func StreamTorus(rows, cols int) *EdgeStream { return gen.StreamTorus(rows, cols) }

// StreamCommunities is the streaming form of Communities.
func StreamCommunities(k, commSize int, pIn, pOut float64, seed uint64) *EdgeStream {
	return gen.StreamCommunities(k, commSize, pIn, pOut, seed)
}

// Fingerprint returns a graph's edge count and a canonical digest of
// its exact edge set — equal fingerprints on equal-order graphs mean
// equal graphs, the cheap cross-mode and cross-generator identity
// check.
func Fingerprint(g *Graph) (m int, hash string) { return graph.Fingerprint(g) }

// FingerprintSampled digests the edges incident to a deterministic
// pseudo-random sample of vertices — the verification mode for graphs
// too large to fingerprint in full. With samples >= g.N() it equals
// Fingerprint.
func FingerprintSampled(g *Graph, samples int, seed uint64) (m int, hash string) {
	return graph.FingerprintSampled(g, samples, seed)
}
