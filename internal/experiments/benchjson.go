package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/edgeset"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/rng"
)

// BenchResult is one benchmark's measurement in the machine-readable
// perf baseline (BENCH_core.json).
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport is the document written by `cmd/experiments -bench-json`.
type BenchReport struct {
	GeneratedBy string        `json:"generated_by"`
	GoVersion   string        `json:"go_version"`
	MaxProcs    int           `json:"go_maxprocs"`
	Benchmarks  []BenchResult `json:"benchmarks"`
}

// BenchJSON runs the spanner-assembly, engine, and frontier benchmarks
// through testing.Benchmark and writes the results as JSON — the perf
// trajectory artifact CI uploads on every run and gates against
// (BenchGate), so future changes have a machine-readable ns/op, B/op,
// allocs/op baseline to diff against instead of eyeballing bench logs.
// go_maxprocs records the GOMAXPROCS actually in effect (the
// `cmd/experiments -cpu` flag sets it), so parallel-engine rows can be
// interpreted on the hardware that produced them.
//
// The assembly pair measures the columnar data plane against the
// pre-columnar map plane (kept here as a reference implementation) on
// the 500k-edge workload; the engine rows measure the full distributed
// construction per CONGEST engine; the frontier rows measure the
// sparse-activity workloads whose round cost the frontier-driven
// stepper keeps at O(activity); the oracle rows measure the query tier
// on the 500k-edge graph — warm single-source reads against the
// pre-pool LRU oracle (kept as a reference implementation, like the map
// plane), batch throughput, bidirectional point queries with
// hand-measured p50/p99 rows, and replica scaling up to GOMAXPROCS
// (flat on a single hardware core; the scaling shows on multicore).
func BenchJSON(w io.Writer) error {
	rep := BenchReport{
		GeneratedBy: "cmd/experiments -bench-json",
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
	}
	record := func(name string, f func(b *testing.B)) {
		r := testing.Benchmark(f)
		rep.Benchmarks = append(rep.Benchmarks, BenchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}

	// --- Spanner assembly: map plane (reference) vs columnar plane ---
	const an = 100_000
	const am = 500_000
	stream := AssemblyWorkload(an, am)
	record("assembly/map-plane/500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AssembleMapPlane(an, stream)
		}
	})
	record("assembly/columnar/500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AssembleColumnar(an, stream)
		}
	})

	// --- Full distributed construction per engine ---
	g := gen.GNP(1024, 16.0/1024, 17, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	for _, eng := range congest.Engines() {
		record("engine/"+eng.String()+"/gnp-1024", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(context.Background(), g, p, core.Options{
					Mode: core.ModeDistributed, Engine: eng,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The centralized reference, which the assembly plane dominates.
	record("build/centralized/gnp-1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(context.Background(), g, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- Sparse-activity (frontier) workloads ---
	// The frontier ≪ n regime the O(activity) round execution targets:
	// a single climb trace walking a 16k-vertex path (message-driven,
	// ~1 awake vertex per round) and a sparse-member ruling set on the
	// same path (fixed schedule; most windows move few or no waves).
	const fn = 16384
	fg, rt, start := FrontierClimbWorkload(fn)
	record("frontier/climb-path-16k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := congest.NewUniform(fg, protocols.NewClimb(rt, start), congest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RunUntilQuiet(protocols.ClimbMaxRounds(1, fn)); err != nil {
				b.Fatal(err)
			}
		}
	})
	isMember, q, c := FrontierRulingWorkload()
	record("frontier/ruling-path-16k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := congest.NewUniform(fg, protocols.NewRulingSet(isMember, q, c, fn),
				congest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.Run(protocols.RulingSetRounds(q, c, fn)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- Oracle query tier on the 500k-edge assembly graph ---
	og := AssembleColumnar(an, stream)
	// The warm working set: 256 hot sources, all resident in the pool's
	// source cache, so every read is an atomic load plus an array index.
	const hot = 256
	qr := rng.New(0x0DDBA11)
	warmPairs := make([][2]int, 4096)
	for i := range warmPairs {
		warmPairs[i] = [2]int{int(qr.Uint64() % hot), int(qr.Uint64() % uint64(an))}
	}
	// Warm single-source reads. The loop walks warmPairs with a plain
	// wrapping counter so harness overhead (which the single-digit-ns
	// row is sensitive to) stays minimal.
	pool := oracle.NewPool(og, oracle.PoolOptions{Replicas: 1, CacheSources: hot})
	for s := 0; s < hot; s++ {
		pool.Sources(s)
	}
	record("oracle/warm-source/pool-500k", func(b *testing.B) {
		b.ReportAllocs()
		j := 0
		for i := 0; i < b.N; i++ {
			q := warmPairs[j]
			if j++; j == len(warmPairs) {
				j = 0
			}
			benchSink = pool.Dist(q[0], q[1])
		}
	})

	// Batch throughput: 4096 queries over 16 hot sources per call, so
	// the grouped path answers most of the batch from shared BFS levels.
	batch := make([][2]int, 4096)
	for i := range batch {
		batch[i] = [2]int{int(qr.Uint64() % 16), int(qr.Uint64() % uint64(an))}
	}
	record("oracle/batch/pairs4096-500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = pool.PairsBatch(batch)[0]
		}
	})

	// Cold point queries: the bidirectional fast path in a preallocated
	// replica workspace, no source cache.
	point := oracle.NewPool(og, oracle.PoolOptions{Replicas: 1, CacheSources: -1})
	pointPairs := make([][2]int, 2048)
	for i := range pointPairs {
		pointPairs[i] = [2]int{int(qr.Uint64() % uint64(an)), int(qr.Uint64() % uint64(an))}
	}
	point.Dist(pointPairs[0][0], pointPairs[0][1]) // allocate the workspace
	record("oracle/point/bidi-500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := pointPairs[i%len(pointPairs)]
			benchSink = point.Dist(q[0], q[1])
		}
	})

	// Point-query latency quantiles: testing.Benchmark only reports the
	// mean, so time each query by hand and emit the quantiles as
	// synthetic rows (NsPerOp = quantile, Iterations = sample count).
	lats := make([]int64, len(pointPairs))
	for i, q := range pointPairs {
		t0 := time.Now()
		benchSink = point.Dist(q[0], q[1])
		lats[i] = time.Since(t0).Nanoseconds()
	}
	slices.Sort(lats)
	for _, qt := range []struct {
		name string
		q    float64
	}{{"oracle/point/p50-500k", 0.5}, {"oracle/point/p99-500k", 0.99}} {
		idx := int(math.Ceil(qt.q*float64(len(lats)))) - 1
		rep.Benchmarks = append(rep.Benchmarks, BenchResult{
			Name:       qt.name,
			Iterations: len(lats),
			NsPerOp:    float64(lats[idx]),
		})
	}

	// Replica scaling: concurrent cold point queries at k replicas with
	// GOMAXPROCS pinned to k, for k = 1, 2, 4, ... up to the report's
	// MaxProcs. Near-linear qps scaling (ns/op dropping ~1/k) needs k
	// hardware cores; on fewer the rows record the flat ceiling.
	for k := 1; k <= rep.MaxProcs; k *= 2 {
		prev := runtime.GOMAXPROCS(k)
		sp := oracle.NewPool(og, oracle.PoolOptions{Replicas: k, CacheSources: -1})
		record(fmt.Sprintf("oracle/scaling/replicas-%d", k), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				r := rng.New(uint64(k)*0x9E3779B9 + 1)
				for pb.Next() {
					benchSink = sp.Dist(int(r.Uint64()%uint64(an)), int(r.Uint64()%uint64(an)))
				}
			})
		})
		sp.Close()
		runtime.GOMAXPROCS(prev)
	}

	// --- Scale regime: streaming generation and a lazy-arena build ---
	// The generator pair measures the streaming CSR path against the
	// materializing Builder path on the same 500k-edge GNP draw (both
	// yield the bit-identical graph; the streaming row is the one the
	// 10⁷-edge workloads use). The build row is the -scale 500k workload:
	// the full distributed construction on the parallel engine with a
	// fully lazy arena.
	const sn = 8192
	sprob := 2 * 500_000 / (float64(sn) * float64(sn-1))
	record("scale/gen/gnp-500k/builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = int32(gen.GNP(sn, sprob, 29, true).M())
		}
	})
	record("scale/gen/gnp-500k/stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = int32(gen.StreamGNP(sn, sprob, 29, true).Graph().M())
		}
	})
	sg := gen.StreamGNP(4096, 2*500_000/(4096.0*4095.0), 1, true).Graph()
	sp2, err := params.New(1.0/3, 3, 0.49, sg.N())
	if err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	record("scale/build/parallel/gnp-4k-500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(context.Background(), sg, sp2, core.Options{
				Mode: core.ModeDistributed, Engine: congest.EngineParallel,
				ArenaFraction: -1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- Delta regime: incremental rebuild vs from-scratch on the
	// 10⁶-edge GNP workload. The full build is hand-timed as a single
	// synthetic row (one build is minutes of compute — testing.Benchmark
	// would just re-run it); the rebuild row replays an 8-operation
	// delta (0.0008% of the edges) against the retained state through
	// testing.Benchmark, asserting it stays on the incremental path.
	// The pair is the committed form of the tentpole perf claim: rebuild
	// ns/op must stay an order of magnitude under full-build ns/op.
	const dn = 65536
	dprob := 2 * 1_000_000 / (float64(dn) * float64(dn-1))
	dg := gen.StreamGNP(dn, dprob, 31, true).Graph()
	dp, err := params.New(1.0/3, 3, 0.34, dg.N())
	if err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	t0 := time.Now()
	dprev, err := core.Build(context.Background(), dg, dp, core.Options{KeepRebuildState: true})
	if err != nil {
		return fmt.Errorf("bench-json: delta full build: %w", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, BenchResult{
		Name:       "delta/full-build/gnp-65k-1m",
		Iterations: 1,
		NsPerOp:    float64(time.Since(t0).Nanoseconds()),
	})
	db := delta.RandomBatch(dg, 4, 31)
	record("delta/rebuild/gnp-65k-1m-8ops", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := core.Rebuild(context.Background(), dprev, db, core.Options{KeepRebuildState: true})
			if err != nil {
				b.Fatal(err)
			}
			if !r.Incremental {
				b.Fatal("delta rebuild fell back to a full build")
			}
			benchSink = int32(r.Tracked)
		}
	})

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// benchSink defeats dead-code elimination in the query benchmarks.
var benchSink int32

// FrontierClimbWorkload builds the long-path climb workload shared by
// BenchmarkFrontier and the bench-json baseline: a single trace
// initiated at the far end of an n-vertex path walks parent pointers
// toward vertex 0, one hop per round, so the per-round frontier is ~1
// while n is large. One definition serves both so the committed baseline
// and the bench suite always measure the identical workload.
func FrontierClimbWorkload(n int) (*graph.Graph, *protocols.Routing, [][]int64) {
	g := gen.Path(n)
	parentPort := make([]int, n)
	for v := 0; v < n; v++ {
		parentPort[v] = -1
		if v > 0 {
			parentPort[v] = g.PortOf(v, v-1)
		}
	}
	start := make([][]int64, n)
	start[n-1] = []int64{-1}
	return g, protocols.NewForestRouting(parentPort, -1), start
}

// FrontierRulingWorkload returns the sparse-member ruling-set parameters
// of the frontier benchmark family (run on the FrontierClimbWorkload
// path graph). Shared between BenchmarkFrontier and the bench-json
// baseline for the same reason as the climb workload: one definition,
// identical measurement.
func FrontierRulingWorkload() (isMember func(v int) bool, q int32, c int) {
	return func(v int) bool { return v%64 == 0 }, 2, 3
}

// GatedPrefixes names the benchmark families the CI perf gate compares
// against the committed baseline. Rows outside these families are
// recorded but not gated: the one-off centralized reference, the
// oracle p50/p99 rows (single-pass tail quantiles — one GC pause moves
// the p99 past any reasonable gate), and the oracle scaling rows
// (parallel cost depends on the hardware core count, which the gate
// cannot normalize for). The mean-based oracle rows are gated like
// every other family.
var GatedPrefixes = []string{
	"assembly/", "engine/", "frontier/", "scale/", "delta/",
	"oracle/warm-source/", "oracle/batch/", "oracle/point/bidi-",
}

// LoadBenchReport reads a BenchReport previously written by BenchJSON.
func LoadBenchReport(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return BenchReport{}, fmt.Errorf("bench report: %w", err)
	}
	return rep, nil
}

// gatedName reports whether a benchmark row belongs to a gated family.
func gatedName(name string) bool {
	for _, p := range GatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// BenchGate compares a fresh report against the committed baseline and
// returns one message per gate failure: a gated benchmark whose ns/op
// regressed by more than maxRegress (0.25 = +25%), a gated baseline row
// missing from the fresh report (silently lost coverage), or a
// go_maxprocs mismatch between the reports (engine rows measured at
// different parallelism are not comparable — rerun with -cpu matching
// the baseline). A fresh row without a baseline row is fine — a new
// benchmark cannot fail the gate before its baseline lands.
func BenchGate(baseline, current BenchReport, maxRegress float64) []string {
	var failures []string
	if baseline.MaxProcs != current.MaxProcs {
		failures = append(failures, fmt.Sprintf(
			"go_maxprocs mismatch: baseline %d, fresh %d — rerun with -cpu %d",
			baseline.MaxProcs, current.MaxProcs, baseline.MaxProcs))
	}
	fresh := make(map[string]BenchResult, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		fresh[b.Name] = b
	}
	for _, o := range baseline.Benchmarks {
		if !gatedName(o.Name) || o.NsPerOp <= 0 {
			continue
		}
		b, ok := fresh[o.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"%s: in baseline but missing from the fresh report — gated coverage lost", o.Name))
			continue
		}
		if b.NsPerOp > o.NsPerOp*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, gate %+.0f%%)",
				o.Name, b.NsPerOp, o.NsPerOp, 100*(b.NsPerOp/o.NsPerOp-1), 100*maxRegress))
		}
	}
	return failures
}

// AssemblyWorkload generates the spanner-assembly stream both the root
// BenchmarkSpannerAssembly and the bench-json baseline measure: random
// normalized pairs with ~20% re-emissions (the overlap between
// forest-path and interconnection climbs that the dedupe absorbs).
// One definition serves both so the committed baseline and the bench
// suite always measure the identical workload.
func AssemblyWorkload(n, m int) [][2]int32 {
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

// AssembleMapPlane is the pre-columnar assembly pipeline, preserved as
// the benchmark reference: map[Edge]bool accumulation, a global key
// sort to recover determinism, then the re-deduping graph.Builder.
func AssembleMapPlane(n int, stream [][2]int32) *graph.Graph {
	h := make(map[protocols.Edge]bool)
	for _, e := range stream {
		h[protocols.Edge{U: e[0], V: e[1]}] = true
	}
	edges := make([]protocols.Edge, 0, len(h))
	for e := range h {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, c protocols.Edge) int {
		if a.U != c.U {
			return int(a.U) - int(c.U)
		}
		return int(a.V) - int(c.V)
	})
	hb := graph.NewBuilder(n)
	for _, e := range edges {
		if err := hb.AddEdge(int(e.U), int(e.V)); err != nil {
			panic("experiments: map-plane assembly: " + err.Error())
		}
	}
	return hb.Build()
}

// AssembleColumnar is the current assembly pipeline: edgeset.Set
// accumulation with direct CSR emission.
func AssembleColumnar(n int, stream [][2]int32) *graph.Graph {
	h := edgeset.NewSet(n)
	for _, e := range stream {
		h.Add(int(e[0]), int(e[1]))
	}
	return h.Graph()
}
