package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// DeltaChurnSpec parameterizes the incremental-rebuild workload behind
// `cmd/experiments -delta-churn`: one full build of a streamed GNP
// graph, then a chain of random edge-delta batches, each applied via
// core.Rebuild against the previous step's retained state. The point of
// the experiment is the paper-facing perf claim: a small delta replays
// only its dirty frontier, so a rebuild costs a fraction of a build —
// while producing the bit-identical spanner.
type DeltaChurnSpec struct {
	// TargetEdges is the approximate edge count (default 250 000).
	TargetEdges int
	// Steps is the length of the churn chain (default 8).
	Steps int
	// Ops is the number of delete+insert pairs per batch (default 8,
	// i.e. 16 operations per step).
	Ops int
	// Seed drives the generator and the churn stream (default 1).
	Seed uint64
	// Verify re-runs a from-scratch build on the final patched graph
	// and cross-checks its fingerprint against the chained rebuilds —
	// one extra full build.
	Verify bool
}

// DeltaChurnStep is one rebuild's measurements.
type DeltaChurnStep struct {
	Ops            int
	Tracked        int
	RebuildSeconds float64
	Speedup        float64 // full-build seconds / rebuild seconds
}

// DeltaChurnResult is the churn chain's measurements.
type DeltaChurnResult struct {
	N, M             int
	BuildSeconds     float64
	Steps            []DeltaChurnStep
	FinalM           int
	FinalFingerprint string
	// Verified is set when Spec.Verify ran and the from-scratch build
	// of the final graph agreed bit for bit.
	Verified bool
}

func (s DeltaChurnSpec) withDefaults() DeltaChurnSpec {
	if s.TargetEdges <= 0 {
		s.TargetEdges = 250_000
	}
	if s.Steps <= 0 {
		s.Steps = 8
	}
	if s.Ops <= 0 {
		s.Ops = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// deltaChurnParams is the parameter schedule the churn workloads share
// with the scale regime probes: eps 1/3, kappa 3, rho 0.34.
func deltaChurnParams(n int) (*params.Params, error) {
	return params.New(1.0/3, 3, 0.34, n)
}

// churnGraphN sizes the GNP vertex count so the expected edge count
// lands near the target at average degree ~32 (the scale workload's
// density).
func churnGraphN(targetEdges int) int {
	n := targetEdges / 16
	if n < 1024 {
		n = 1024
	}
	return n
}

// DeltaChurnRun executes the churn chain.
func DeltaChurnRun(ctx context.Context, spec DeltaChurnSpec) (DeltaChurnResult, error) {
	spec = spec.withDefaults()
	n := churnGraphN(spec.TargetEdges)
	prob := 2 * float64(spec.TargetEdges) / (float64(n) * float64(n-1))
	g := gen.StreamGNP(n, prob, spec.Seed, true).Graph()
	p, err := deltaChurnParams(g.N())
	if err != nil {
		return DeltaChurnResult{}, err
	}
	res := DeltaChurnResult{N: g.N(), M: g.M()}

	t0 := time.Now()
	prev, err := core.Build(ctx, g, p, core.Options{KeepRebuildState: true})
	if err != nil {
		return res, err
	}
	res.BuildSeconds = time.Since(t0).Seconds()

	cur := g
	for step := 0; step < spec.Steps; step++ {
		b := delta.RandomBatch(cur, spec.Ops, spec.Seed+uint64(step)*0x9E37)
		t1 := time.Now()
		next, err := core.Rebuild(ctx, prev, b, core.Options{KeepRebuildState: true})
		if err != nil {
			return res, fmt.Errorf("churn step %d: %w", step, err)
		}
		dt := time.Since(t1).Seconds()
		res.Steps = append(res.Steps, DeltaChurnStep{
			Ops:            b.Size(),
			Tracked:        next.Tracked,
			RebuildSeconds: dt,
			Speedup:        res.BuildSeconds / dt,
		})
		prev = next
		cur = next.Rebuild.Graph
	}
	var fp string
	res.FinalM, fp = graph.Fingerprint(prev.Spanner)
	res.FinalFingerprint = fp

	if spec.Verify {
		ref, err := core.Build(ctx, cur, p, core.Options{})
		if err != nil {
			return res, fmt.Errorf("verify build: %w", err)
		}
		refM, refFP := graph.Fingerprint(ref.Spanner)
		if refM != res.FinalM || refFP != fp {
			return res, fmt.Errorf("churn chain diverged: rebuilt %s (%d edges), from-scratch %s (%d edges)",
				fp, res.FinalM, refFP, refM)
		}
		res.Verified = true
	}
	return res, nil
}

// WriteDeltaChurnReport renders the churn measurements.
func WriteDeltaChurnReport(w io.Writer, r DeltaChurnResult) {
	fmt.Fprintf(w, "delta churn: n=%d m=%d, full build %.2fs\n", r.N, r.M, r.BuildSeconds)
	for i, s := range r.Steps {
		fmt.Fprintf(w, "  step %d: %d ops -> incremental, tracked %d, rebuild %.3fs (%.1fx vs full build)\n",
			i, s.Ops, s.Tracked, s.RebuildSeconds, s.Speedup)
	}
	fmt.Fprintf(w, "final spanner: %d edges, fingerprint %s\n", r.FinalM, r.FinalFingerprint)
	if r.Verified {
		fmt.Fprintf(w, "verified: from-scratch build of the final graph is bit-identical\n")
	}
}
