// Benchmarks regenerating the paper's evaluation artifacts — one bench
// per table and figure (README.md, "Command-line tools"), plus component
// benchmarks for the
// protocol stack. Run with:
//
//	go test -bench=. -benchmem
package nearspan_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"nearspan"
	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/experiments"
	"nearspan/internal/gen"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
)

// --- Tables ---

// BenchmarkTable1DeterministicCONGEST regenerates Table 1: the
// deterministic CONGEST comparison (measured New vs analytic Elk05).
func BenchmarkTable1DeterministicCONGEST(b *testing.B) {
	cfgs := experiments.QuickConfigs()[:1]
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(context.Background(), io.Discard, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Panorama regenerates Table 2: the near-additive spanner
// panorama with four measured rows.
func BenchmarkTable2Panorama(b *testing.B) {
	cfg := experiments.QuickConfigs()[0]
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(context.Background(), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures ---

// figureBench runs the full figure suite once per iteration; individual
// figure benches below isolate each figure's dominant computation.
func BenchmarkFiguresSuite(b *testing.B) {
	fc := experiments.DefaultFigureConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.Figures(context.Background(), io.Discard, fc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Superclustering measures phase-0 superclustering
// (Algorithm 1 + ruling set + forest) on the figure grid.
func BenchmarkFigure1Superclustering(b *testing.B) {
	g := gen.Grid(12, 12)
	p, err := params.New(1.0/3, 8, 0.3, g.N())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(context.Background(), g, p, core.Options{KeepClusters: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ForestTrees measures the supercluster BFS forest on
// the simulator (the structure Figure 2 adds to H).
func BenchmarkFigure2ForestTrees(b *testing.B) {
	g := gen.Grid(12, 12)
	isRoot := func(v int) bool { return v%12 == 0 }
	for i := 0; i < b.N; i++ {
		sim, err := congest.NewUniform(g, protocols.NewBFSForest(isRoot, 8), congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), protocols.ForestRounds(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3RulingSetSeparation measures the deterministic ruling
// set whose separation Figure 3 illustrates.
func BenchmarkFigure3RulingSetSeparation(b *testing.B) {
	g := gen.Grid(12, 12)
	member := func(v int) bool { return true }
	q, c := int32(2), 4
	rounds := protocols.RulingSetRounds(q, c, g.N())
	for i := 0; i < b.N; i++ {
		sim, err := congest.NewUniform(g, protocols.NewRulingSet(member, q, c, g.N()), congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4SuperclusterPaths measures forest-path climbing (the
// paths Figure 4 adds to H).
func BenchmarkFigure4SuperclusterPaths(b *testing.B) {
	g := gen.Grid(12, 12)
	dist, _, parent := g.MultiBFS([]int{0, 77, 143}, 10)
	parentPort := make([]int, g.N())
	start := make([][]int64, g.N())
	for v := 0; v < g.N(); v++ {
		parentPort[v] = -1
		if parent[v] >= 0 {
			parentPort[v] = g.PortOf(v, int(parent[v]))
		}
		if dist[v] == 10 {
			start[v] = []int64{-1}
		}
	}
	rt := protocols.NewForestRouting(parentPort, -1)
	for i := 0; i < b.N; i++ {
		sim, err := congest.NewUniform(g, protocols.NewClimb(rt, start), congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunUntilQuietContext(context.Background(), protocols.ClimbMaxRounds(1, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Interconnection measures Algorithm 1 plus the
// interconnection traces (the paths Figure 5 adds to H).
func BenchmarkFigure5Interconnection(b *testing.B) {
	g := gen.Grid(12, 12)
	isCenter := func(v int) bool { return true }
	deg, delta := 12, int32(3)
	rounds := protocols.NearNeighborsRounds(deg, delta)
	for i := 0; i < b.N; i++ {
		sim, err := congest.NewUniform(g, protocols.NewNearNeighborsRec(isCenter, deg, delta, nil), congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6NeighboringClusters measures the cross-phase
// neighboring-cluster distance verification (Lemma 2.15).
func BenchmarkFigure6NeighboringClusters(b *testing.B) {
	g := gen.GNP(150, 0.08, 3, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p, core.Options{KeepClusters: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The verification work: one BFS in H per U-cluster center.
		for _, u := range res.U {
			for _, c := range u.Centers() {
				_ = res.Spanner.BFS(c)
			}
		}
	}
}

// BenchmarkFigure7SegmentStretch measures short-range stretch
// verification (the per-segment bound of Figure 7).
func BenchmarkFigure7SegmentStretch(b *testing.B) {
	g := gen.GNP(150, 0.08, 3, true)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49})
	if err != nil {
		b.Fatal(err)
	}
	alpha, beta := res.Params.Guarantee()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nearspan.VerifyStretchSampled(g, res.Spanner, alpha, beta, 25, 1)
	}
}

// BenchmarkFigure8EndToEndStretch measures the full all-pairs stretch
// verification (the end-to-end bound of Figure 8 / Corollary 2.18).
func BenchmarkFigure8EndToEndStretch(b *testing.B) {
	g := gen.GNP(150, 0.08, 3, true)
	res, err := nearspan.BuildSpanner(g, nearspan.Config{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49})
	if err != nil {
		b.Fatal(err)
	}
	alpha, beta := res.Params.Guarantee()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nearspan.VerifyStretch(g, res.Spanner, alpha, beta)
	}
}

// --- Construction scaling ---

func benchBuild(b *testing.B, n int, mode core.Mode) {
	g := gen.GNP(n, 16/float64(n), uint64(n), true)
	p, err := params.New(1.0/3, 3, 0.49, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(context.Background(), g, p, core.Options{Mode: mode}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCentralized256(b *testing.B)  { benchBuild(b, 256, core.ModeCentralized) }
func BenchmarkBuildCentralized1024(b *testing.B) { benchBuild(b, 1024, core.ModeCentralized) }
func BenchmarkBuildCentralized4096(b *testing.B) { benchBuild(b, 4096, core.ModeCentralized) }
func BenchmarkBuildDistributed256(b *testing.B)  { benchBuild(b, 256, core.ModeDistributed) }
func BenchmarkBuildDistributed1024(b *testing.B) { benchBuild(b, 1024, core.ModeDistributed) }

// BenchmarkBuildDistributedGNP2048 is the spannerbench build workload
// without the daemon: a distributed build of the connected
// GNP(2048, 20/2047) with ε = 1/3, κ = 3, ρ = 0.49. Beyond ns/op it
// reports ns/message, invocations/op (program calls per build) and
// arena-B/op (Result.ArenaBytes), the figures a change to the
// simulator's round loop or message store moves.
func BenchmarkBuildDistributedGNP2048(b *testing.B) {
	const n = 2048
	g := gen.GNP(n, 20.0/(n-1), 1, true)
	p, err := params.New(1.0/3, 3, 0.49, n)
	if err != nil {
		b.Fatal(err)
	}
	var messages, invocations, arena int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Build(context.Background(), g, p, core.Options{Mode: core.ModeDistributed})
		if err != nil {
			b.Fatal(err)
		}
		messages += res.Messages
		for _, st := range res.Steps {
			invocations += st.Invocations
		}
		arena += res.ArenaBytes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(messages), "ns/message")
	b.ReportMetric(float64(invocations)/float64(b.N), "invocations/op")
	b.ReportMetric(float64(arena)/float64(b.N), "arena-B/op")
}

// --- CONGEST simulator micro-benchmark ---

// BenchmarkEngine times one near-neighbors session on a fresh simulator
// over a 256-vertex torus. Compare cores with -cpu.
func BenchmarkEngine(b *testing.B) {
	g := gen.Torus(16, 16)
	isCenter := func(v int) bool { return v%4 == 0 }
	rounds := protocols.NearNeighborsRounds(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := congest.NewUniform(g, protocols.NewNearNeighborsRec(isCenter, 6, 8, nil), congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Persistent network runtime ---

// BenchmarkNetworkReuse quantifies what the persistent network runtime
// removes: the per-step simulator construction (O(m) slot tables:
// twin, at and sent) that the pre-session world paid for every protocol step.
// "per-step-sim" builds a fresh simulator for each of the three
// fixed-schedule protocol steps of a phase; "persistent-network" attaches the same three steps as
// sessions to one long-lived network (constructed outside the timed
// loop, as core.Build constructs one per spanner build). Compare
// allocations per op between the two modes.
func BenchmarkNetworkReuse(b *testing.B) {
	g := gen.Torus(24, 24)
	isCenter := func(v int) bool { return v%3 == 0 }
	deg, delta := 4, int32(4)
	q, c := int32(2), 3

	b.Run("per-step-sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runs := []struct {
				factory func(v int) congest.Program
				rounds  int
			}{
				{protocols.NewNearNeighborsRec(isCenter, deg, delta, nil), protocols.NearNeighborsRounds(deg, delta)},
				{protocols.NewRulingSet(isCenter, q, c, g.N()), protocols.RulingSetRounds(q, c, g.N())},
				{protocols.NewBFSForest(func(v int) bool { return v == 0 }, 6), protocols.ForestRounds(6)},
			}
			for _, r := range runs {
				sim, err := congest.NewUniform(g, r.factory, congest.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.RunContext(context.Background(), r.rounds); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("persistent-network", func(b *testing.B) {
		led := protocols.NewLedger(0, nil)
		net, err := protocols.NewNetwork(g, congest.Options{}, led)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			led.BeginPhase(i)
			if _, err := protocols.RunNearNeighborsRec(context.Background(), net, isCenter, deg, delta, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := protocols.RunRulingSet(context.Background(), net, isCenter, q, c, g.N()); err != nil {
				b.Fatal(err)
			}
			if _, err := protocols.RunForest(context.Background(), net, func(v int) bool { return v == 0 }, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Shared execution runtime ---

// BenchmarkBatchBuild compares a sequential loop of distributed builds
// against BuildBatch fanning the same eight jobs over the shared
// execution runtime. Each build runs its rounds inline (the graphs are
// below the fan-out cutoff), so the batch's win is pure cross-build
// concurrency: on an
// N-core runner the batch should approach min(N, 8)x. Outputs are
// bit-identical either way (asserted in the test suite, not here).
func BenchmarkBatchBuild(b *testing.B) {
	cfg := nearspan.Config{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49, Mode: nearspan.DistributedMode}
	var jobs []nearspan.BuildJob
	for i := 0; i < 8; i++ {
		jobs = append(jobs, nearspan.BuildJob{
			Name:   fmt.Sprintf("gnp-%d", i),
			Graph:  gen.GNP(256, 16.0/256, uint64(10+i), true),
			Config: cfg,
		})
	}
	b.Run("sequential-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := nearspan.BuildSpanner(j.Graph, j.Config); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs, err := nearspan.BuildBatch(context.Background(), jobs, nearspan.BatchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for _, out := range outs {
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		}
	})
}

// --- Ablation benches ---

// BenchmarkAblationRulingSetVsSampling compares the deterministic
// superclustering selection against EN17-style sampling (ablation A1's
// runtime face).
func BenchmarkAblationRulingSetVsSampling(b *testing.B) {
	cfg := experiments.QuickConfigs()[0]
	b.Run("ruling-set", func(b *testing.B) {
		p, err := params.New(cfg.Eps, cfg.Kappa, cfg.Rho, cfg.N())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(context.Background(), cfg.Graph, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampling-en17", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nearspan.BuildEN17(cfg.Graph, cfg.Eps, cfg.Kappa, cfg.Rho, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}
