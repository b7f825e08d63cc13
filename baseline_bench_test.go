package nearspan_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/rng"
)

// BenchmarkBaseline is the perf baseline: one sub-benchmark per
// BENCH_core.json row, named as the row. CI converts its output into a
// report and gates it against the committed baseline:
//
//	go test -run '^$' -bench '^BenchmarkBaseline$' -benchmem -cpu 4 . |
//		go run ./cmd/experiments -bench-json BENCH_fresh.json -bench-gate BENCH_core.json
//
// testing calls a row's body several times (N = 1 first), so the large
// fixtures — the 500k-edge assembly stream and its oracle graph, the
// 500k-edge scale GNP, and the 10⁶-edge delta GNP with its full build —
// are built once, on first use, outside the timed region. Three rows are
// hand-timed and report their figure with b.ReportMetric(v, "ns/op"),
// which overrides the measured ns/op: the delta full build (one build,
// timed when the fixture is made) and the point-query p50 and p99.
func BenchmarkBaseline(b *testing.B) {
	ctx := context.Background()

	// --- Spanner assembly: map plane (reference) vs columnar plane ---
	const an, am = 100_000, 500_000
	stream := sync.OnceValue(func() [][2]int32 { return assemblyWorkload(an, am) })
	b.Run("assembly/map-plane/500k", func(b *testing.B) {
		s := stream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			assembleMapPlane(an, s)
		}
	})
	b.Run("assembly/columnar/500k", func(b *testing.B) {
		s := stream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			assembleColumnar(an, s)
		}
	})

	// --- Full construction: the centralized reference, which the
	// assembly plane dominates, then the distributed build per workload
	// shape: GNP (dense superclustering), grid (sparse, symmetric) and
	// preferential attachment (degree-skewed). No round of the
	// 1024-vertex shapes is large enough to fan out (see
	// inlineWorkCutoff in internal/congest); gnp-2048 (mean degree 20,
	// the spannerd build shape) fans out its dense near-neighbors
	// rounds, so compare it at -cpu 1 and -cpu 2 to see what the
	// second core buys.
	pa, err := gen.PreferentialAttachment(1024, 3, 9)
	if err != nil {
		b.Fatal(err)
	}
	gnp1024 := gen.GNP(1024, 16.0/1024, 17, true)
	b.Run("build/centralized/gnp-1024", func(b *testing.B) {
		benchBuildRow(b, gnp1024, core.Options{})
	})
	for _, wl := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-1024", gnp1024},
		{"grid-1024", gen.Grid(32, 32)},
		{"pa-1024", pa},
		{"gnp-2048", gen.GNP(2048, 20.0/2047, 7, true)},
	} {
		b.Run("engine/"+wl.name, func(b *testing.B) {
			benchBuildRow(b, wl.g, core.Options{Mode: core.ModeDistributed})
		})
	}

	// --- Sparse-activity (frontier) workloads ---
	// The frontier ≪ n regime the O(activity) round execution targets:
	// a single climb trace walking a 16k-vertex path (message-driven,
	// ~1 awake vertex per round) and a sparse-member ruling set on the
	// same path (fixed schedule; most windows move few or no waves, so
	// the message plane, not the program work, is what the round cost
	// must scale with). Both report arena-B/op, the simulator's
	// ArenaBytes.
	const fn = 16384
	fg := gen.Path(fn)
	parentPort := make([]int, fn)
	for v := range parentPort {
		parentPort[v] = -1
		if v > 0 {
			parentPort[v] = fg.PortOf(v, v-1)
		}
	}
	rt := protocols.NewForestRouting(parentPort, -1)
	start := make([][]int64, fn) // one trace, initiated at the far end
	start[fn-1] = []int64{-1}
	b.Run("frontier/climb-path-16k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := congest.NewUniform(fg, protocols.NewClimb(rt, start), congest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RunUntilQuietContext(ctx, protocols.ClimbMaxRounds(1, fn)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sim.ArenaBytes()), "arena-B/op")
		}
	})
	isMember := func(v int) bool { return v%64 == 0 }
	const q, c = 2, 3
	b.Run("frontier/ruling-path-16k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := congest.NewUniform(fg, protocols.NewRulingSet(isMember, q, c, fn), congest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.RunContext(ctx, protocols.RulingSetRounds(q, c, fn)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sim.ArenaBytes()), "arena-B/op")
		}
	})

	// --- Oracle query tier on the 500k-edge assembly graph ---
	oq := sync.OnceValue(func() oracleWork { return newOracleWork(assembleColumnar(an, stream())) })
	// Warm single-source reads. The loop walks the pairs with a plain
	// wrapping counter so harness overhead (which the single-digit-ns
	// row is sensitive to) stays minimal.
	b.Run("oracle/warm-source/pool-500k", func(b *testing.B) {
		o := oq()
		b.ReportAllocs()
		b.ResetTimer()
		j := 0
		for i := 0; i < b.N; i++ {
			q := o.warmPairs[j]
			if j++; j == len(o.warmPairs) {
				j = 0
			}
			sink = o.warm.Dist(q[0], q[1])
		}
	})
	// Batch throughput: 4096 queries over 16 hot sources per call, so
	// the grouped path answers most of the batch from shared BFS levels.
	b.Run("oracle/batch/pairs4096-500k", func(b *testing.B) {
		o := oq()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = o.warm.PairsBatch(o.batch)[0]
		}
	})
	// Cold point queries: the bidirectional fast path in a preallocated
	// replica workspace, no source cache.
	b.Run("oracle/point/bidi-500k", func(b *testing.B) {
		o := oq()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := o.pointPairs[i%len(o.pointPairs)]
			sink = o.point.Dist(q[0], q[1])
		}
	})
	// Point-query latency quantiles: the same queries, each timed by
	// hand, reported as the quantile instead of the mean.
	for _, qt := range []struct {
		name string
		q    float64
	}{{"oracle/point/p50-500k", 0.5}, {"oracle/point/p99-500k", 0.99}} {
		b.Run(qt.name, func(b *testing.B) {
			o := oq()
			lats := make([]int64, b.N)
			b.ResetTimer()
			for i := range lats {
				q := o.pointPairs[i%len(o.pointPairs)]
				t0 := time.Now()
				sink = o.point.Dist(q[0], q[1])
				lats[i] = time.Since(t0).Nanoseconds()
			}
			b.StopTimer()
			slices.Sort(lats)
			b.ReportMetric(float64(lats[int(math.Ceil(qt.q*float64(len(lats))))-1]), "ns/op")
		})
	}
	// Replica scaling: concurrent cold point queries at k replicas with
	// GOMAXPROCS pinned to k, for k = 1, 2, 4, ... up to the run's
	// -cpu. Near-linear scaling (ns/op dropping ~1/k) needs k hardware
	// cores; on fewer the rows record the flat ceiling.
	for k := 1; k <= benchMaxProcs(); k *= 2 {
		var sp *oracle.Pool // one pool per row, kept across its runs
		b.Run(fmt.Sprintf("oracle/scaling/replicas-%d", k), func(b *testing.B) {
			if sp == nil {
				sp = oracle.NewPool(oq().g, oracle.PoolOptions{Replicas: k, CacheSources: -1})
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
			b.ResetTimer()
			// No sink: a store shared by the goroutines would race, and
			// Dist's replica acquire is atomic, so the call stays.
			b.RunParallel(func(pb *testing.PB) {
				r := rng.New(uint64(k)*0x9E3779B9 + 1)
				for pb.Next() {
					sp.Dist(int(r.Uint64()%an), int(r.Uint64()%an))
				}
			})
		})
	}

	// --- Scale regime: streaming generation and a distributed build ---
	// The generator pair measures the streaming CSR path against the
	// materializing Builder path on the same 500k-edge GNP draw (both
	// yield the bit-identical graph). The build row is the -scale 500k
	// workload, the full distributed construction (the row keeps its
	// name so the perf trajectory stays continuous).
	const sn = 8192
	sprob := 2 * 500_000 / (float64(sn) * float64(sn-1))
	b.Run("scale/gen/gnp-500k/builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = int32(gen.GNP(sn, sprob, 29, true).M())
		}
	})
	b.Run("scale/gen/gnp-500k/stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = int32(gen.StreamGNP(sn, sprob, 29, true).Graph().M())
		}
	})
	scaleGraph := sync.OnceValue(func() *graph.Graph {
		return gen.StreamGNP(4096, 2*500_000/(4096.0*4095.0), 1, true).Graph()
	})
	b.Run("scale/build/parallel/gnp-4k-500k", func(b *testing.B) {
		benchBuildRow(b, scaleGraph(), core.Options{Mode: core.ModeDistributed})
	})

	// --- Delta regime: incremental rebuild vs from-scratch on the
	// 10⁶-edge GNP. The full build is timed once, when the fixture is
	// made, and reported by hand; the rebuild row replays an 8-operation
	// delta (0.0008% of the edges) against the retained state. The pair
	// is the committed form of the rebuild claim: rebuild ns/op must
	// stay an order of magnitude under full-build ns/op.
	dw := sync.OnceValues(func() (deltaWork, error) {
		const dn = 65536
		g := gen.StreamGNP(dn, 2*1_000_000/(float64(dn)*float64(dn-1)), 31, true).Graph()
		p, err := params.New(1.0/3, 3, 0.34, g.N())
		if err != nil {
			return deltaWork{}, err
		}
		t0 := time.Now()
		prev, err := core.Build(ctx, g, p, core.Options{KeepRebuildState: true})
		build := time.Since(t0)
		return deltaWork{prev, delta.RandomBatch(g, 4, 31), build}, err
	})
	b.Run("delta/full-build/gnp-65k-1m", func(b *testing.B) {
		d, err := dw()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.build.Nanoseconds()), "ns/op")
	})
	b.Run("delta/rebuild/gnp-65k-1m-8ops", func(b *testing.B) {
		d, err := dw()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := core.Rebuild(ctx, d.prev, d.batch, core.Options{KeepRebuildState: true})
			if err != nil {
				b.Fatal(err)
			}
			sink = int32(r.Tracked)
		}
	})
}

// sink keeps the rows' measured results alive, so the compiler cannot
// drop the calls.
var sink int32

// benchBuildRow times core.Build of g with ε = 1/3, κ = 3, ρ = 0.49.
func benchBuildRow(b *testing.B, g *graph.Graph, opts core.Options) {
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(context.Background(), g, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMaxProcs is the largest GOMAXPROCS the run's -cpu list asks for.
// testing sets GOMAXPROCS per row, just before the row's timed runs, so
// while BenchmarkBaseline's own body runs it may still hold the
// process default.
func benchMaxProcs() int {
	f := flag.Lookup("test.cpu")
	if f == nil || f.Value.String() == "" {
		return runtime.GOMAXPROCS(0)
	}
	procs := 1
	for _, s := range strings.Split(f.Value.String(), ",") {
		if n, err := strconv.Atoi(s); err == nil {
			procs = max(procs, n)
		}
	}
	return procs
}

// oracleWork is the query tier's fixture: the 500k-edge assembly graph,
// a pool whose source cache holds 256 hot sources, a cache-less pool
// for cold point queries, and the query mixes drawn for each.
type oracleWork struct {
	g                            *graph.Graph
	warm, point                  *oracle.Pool
	warmPairs, batch, pointPairs [][2]int
}

func newOracleWork(g *graph.Graph) oracleWork {
	const hot = 256
	n := uint64(g.N())
	r := rng.New(0x0DDBA11)
	pairs := func(k int, sources uint64) [][2]int {
		out := make([][2]int, k)
		for i := range out {
			out[i] = [2]int{int(r.Uint64() % sources), int(r.Uint64() % n)}
		}
		return out
	}
	warmPairs := pairs(4096, hot)
	batch := pairs(4096, 16)
	pointPairs := pairs(2048, n)
	o := oracleWork{
		g:          g,
		warm:       oracle.NewPool(g, oracle.PoolOptions{Replicas: 1, CacheSources: hot}),
		point:      oracle.NewPool(g, oracle.PoolOptions{Replicas: 1, CacheSources: -1}),
		warmPairs:  warmPairs,
		batch:      batch,
		pointPairs: pointPairs,
	}
	// Every warm read is an atomic load plus an array index.
	for s := 0; s < hot; s++ {
		o.warm.Sources(s)
	}
	o.point.Dist(o.pointPairs[0][0], o.pointPairs[0][1]) // allocate the workspace
	return o
}

// deltaWork is the delta regime's fixture: a full build of the 10⁶-edge
// GNP that keeps its rebuild state, the batch the rebuild row replays,
// and how long the build took.
type deltaWork struct {
	prev  *core.Result
	batch *delta.Batch
	build time.Duration
}

// assemblyWorkload generates the spanner-assembly stream: random
// normalized pairs with ~20% re-emissions (the overlap between
// forest-path and interconnection climbs that the dedupe absorbs).
func assemblyWorkload(n, m int) [][2]int32 {
	r := rng.New(0xA55E1B1E)
	out := make([][2]int32, 0, m+m/4)
	for len(out) < m {
		u := int32(r.Uint64() % uint64(n))
		v := int32(r.Uint64() % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		out = append(out, [2]int32{u, v})
		if len(out)%4 == 0 {
			out = append(out, out[int(r.Uint64()%uint64(len(out)))])
		}
	}
	return out
}

// assembleMapPlane is the pre-columnar assembly pipeline, kept as the
// reference of the assembly rows: map[[2]int32]bool accumulation, a
// global key sort to recover determinism, then the re-deduping
// graph.Builder.
func assembleMapPlane(n int, stream [][2]int32) *graph.Graph {
	h := make(map[[2]int32]bool)
	for _, e := range stream {
		h[e] = true
	}
	edges := make([][2]int32, 0, len(h))
	for e := range h {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, c [2]int32) int {
		if a[0] != c[0] {
			return int(a[0]) - int(c[0])
		}
		return int(a[1]) - int(c[1])
	})
	hb := graph.NewBuilder(n)
	for _, e := range edges {
		if err := hb.AddEdge(int(e[0]), int(e[1])); err != nil {
			panic("map-plane assembly: " + err.Error())
		}
	}
	return hb.Build()
}

// assembleColumnar is the current assembly pipeline: graph.Builder
// accumulation with direct CSR emission.
func assembleColumnar(n int, stream [][2]int32) *graph.Graph {
	h := graph.NewBuilder(n)
	for _, e := range stream {
		h.Add(int(e[0]), int(e[1]))
	}
	return h.Build()
}

// TestAssemblyPlanesAgree pins what the assembly rows assume: both
// planes produce the identical CSR graph from the identical stream.
func TestAssemblyPlanesAgree(t *testing.T) {
	const n = 2000
	stream := assemblyWorkload(n, 10_000)
	want := assembleMapPlane(n, stream)
	got := assembleColumnar(n, stream)
	if got.M() != want.M() {
		t.Fatalf("edge counts differ: columnar %d, map %d", got.M(), want.M())
	}
	want.Edges(func(u, v int) {
		if !got.HasEdge(u, v) {
			t.Errorf("columnar plane missing edge {%d,%d}", u, v)
		}
	})
}
