package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/verify"
)

// ScaleSpec parameterizes one scale-regime workload: a streamed GNP
// graph near a target edge count, pushed through the full distributed
// construction with a lazily-grown message arena. This is the workload
// family behind `cmd/experiments -scale` and the build-tagged 10⁷-edge
// smoke test.
type ScaleSpec struct {
	// TargetEdges is the approximate edge count; the realized M lands
	// within sampling noise of it.
	TargetEdges int
	// Seed drives the generator (default 1 when zero).
	Seed uint64
	// VerifySamples > 0 runs a sampled stretch verification from that
	// many BFS sources after the build.
	VerifySamples int
}

// ScaleResult is one scale workload's measurements.
type ScaleResult struct {
	N, M         int
	GenSeconds   float64
	BuildSeconds float64
	SpannerEdges int
	TotalRounds  int
	Messages     int64
	// ArenaBytes / ArenaWorstCase is the measured-arena headroom: how
	// far the footprint the traffic grew stayed below a
	// one-message-per-slot arena on the same topology.
	ArenaBytes     int64
	ArenaWorstCase int64
	// SysBytes is runtime.MemStats.Sys after the build — the memory
	// obtained from the OS, the process-level scale criterion.
	SysBytes uint64
	// SampledHash is the spanner's sampled fingerprint (1024 vertices,
	// the generator seed) — the cheap reproducibility check at sizes
	// where a full fingerprint is not worth the pass.
	SampledHash string
	// Verified / StretchOK report the sampled stretch check (only when
	// ScaleSpec.VerifySamples > 0).
	Verified  bool
	StretchOK bool
}

// ScaleN returns the vertex count the scale family uses for a target
// edge count: the smallest power of two that keeps the average degree
// under ~320. At 10⁷ edges this is n = 65536 (average degree ≈ 305).
func ScaleN(targetEdges int) int {
	n := 2
	for n*160 < targetEdges {
		n *= 2
	}
	return n
}

// ScaleRun generates the workload graph through the streaming path and
// runs the distributed construction, measuring wall time and memory.
func ScaleRun(ctx context.Context, spec ScaleSpec) (ScaleResult, error) {
	if spec.TargetEdges <= 0 {
		return ScaleResult{}, fmt.Errorf("scale: target edges must be positive, got %d", spec.TargetEdges)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}

	n := ScaleN(spec.TargetEdges)
	p := 2 * float64(spec.TargetEdges) / (float64(n) * float64(n-1))

	t0 := time.Now()
	g := gen.StreamGNP(n, p, seed, true).Graph()
	genSec := time.Since(t0).Seconds()

	pr, err := params.New(1.0/3, 3, 0.49, n)
	if err != nil {
		return ScaleResult{}, fmt.Errorf("scale: %w", err)
	}
	t0 = time.Now()
	res, err := core.Build(ctx, g, pr, core.Options{Mode: core.ModeDistributed})
	if err != nil {
		return ScaleResult{}, fmt.Errorf("scale: build: %w", err)
	}
	buildSec := time.Since(t0).Seconds()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, hash := graph.FingerprintSampled(res.Spanner, 1024, seed)

	out := ScaleResult{
		N: n, M: g.M(),
		GenSeconds:     genSec,
		BuildSeconds:   buildSec,
		SpannerEdges:   res.EdgeCount(),
		TotalRounds:    res.TotalRounds,
		Messages:       res.Messages,
		ArenaBytes:     res.ArenaBytes,
		ArenaWorstCase: res.ArenaBytesWorstCase,
		SysBytes:       ms.Sys,
		SampledHash:    hash,
	}
	if spec.VerifySamples > 0 {
		alpha, beta := pr.Guarantee()
		rep := verify.StretchSampled(g, res.Spanner, alpha, beta, spec.VerifySamples, seed)
		out.Verified = true
		out.StretchOK = rep.OK()
	}
	return out, nil
}

// WriteScaleReport renders a ScaleResult as the `-scale` text block.
func WriteScaleReport(w io.Writer, r ScaleResult) {
	fmt.Fprintf(w, "scale workload: gnp n=%d m=%d\n", r.N, r.M)
	fmt.Fprintf(w, "  generate      %8.2fs (streaming CSR)\n", r.GenSeconds)
	fmt.Fprintf(w, "  build         %8.2fs  rounds=%d messages=%d spanner-edges=%d\n",
		r.BuildSeconds, r.TotalRounds, r.Messages, r.SpannerEdges)
	ratio := 0.0
	if r.ArenaBytes > 0 {
		ratio = float64(r.ArenaWorstCase) / float64(r.ArenaBytes)
	}
	fmt.Fprintf(w, "  arena         %8.1f MiB measured vs %.1f MiB worst-case (%.1f x headroom)\n",
		float64(r.ArenaBytes)/(1<<20), float64(r.ArenaWorstCase)/(1<<20), ratio)
	fmt.Fprintf(w, "  process mem   %8.1f MiB (runtime Sys)\n", float64(r.SysBytes)/(1<<20))
	fmt.Fprintf(w, "  spanner hash  %s (sampled, 1024 vertices)\n", r.SampledHash)
	if r.Verified {
		fmt.Fprintf(w, "  stretch check %v (sampled)\n", r.StretchOK)
	}
}
