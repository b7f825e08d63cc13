package nearspan_test

import (
	"testing"

	"nearspan/internal/experiments"
)

// BenchmarkSpannerAssembly compares the two spanner-assembly data
// planes on the 500k-edge workload: "map-plane" is the pre-columnar
// pipeline (map[[2]int32]bool accumulation, global key sort, then a
// re-deduping graph.Builder) preserved as the reference; "columnar" is
// the graph.Builder plane alone (bucketed sorted-run dedupe, direct CSR
// emission). Both produce the identical graph (asserted
// below). The shared workload and plane implementations live in
// internal/experiments so `cmd/experiments -bench-json` records exactly
// these measurements in the BENCH_core.json perf-trajectory artifact.
func BenchmarkSpannerAssembly(b *testing.B) {
	const n = 100_000
	const m = 500_000
	stream := experiments.AssemblyWorkload(n, m)

	b.Run("map-plane/500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.AssembleMapPlane(n, stream)
		}
	})
	b.Run("columnar/500k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.AssembleColumnar(n, stream)
		}
	})
}

// TestAssemblyPlanesAgree pins what the benchmark assumes: both planes
// produce the identical CSR graph from the identical stream.
func TestAssemblyPlanesAgree(t *testing.T) {
	const n = 2000
	stream := experiments.AssemblyWorkload(n, 10_000)
	want := experiments.AssembleMapPlane(n, stream)
	got := experiments.AssembleColumnar(n, stream)
	if got.M() != want.M() {
		t.Fatalf("edge counts differ: columnar %d, map %d", got.M(), want.M())
	}
	want.Edges(func(u, v int) {
		if !got.HasEdge(u, v) {
			t.Errorf("columnar plane missing edge {%d,%d}", u, v)
		}
	})
}
