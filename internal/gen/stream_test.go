package gen

import (
	"fmt"
	"math"
	"testing"

	"nearspan/internal/graph"
)

// TestStreamMatchesMaterialized is the bit-identity property test for the
// streaming generators: over every generator kind, several seeds, and
// several sizes, the streamed CSR must fingerprint equal to the
// materialized builder path, and the stream's precomputed counts must
// match the graph it produces.
func TestStreamMatchesMaterialized(t *testing.T) {
	type tc struct {
		name string
		mat  func() *graph.Graph
		str  func() *EdgeStream
	}
	var cases []tc
	for _, seed := range []uint64{1, 7, 42, 9001} {
		for _, n := range []int{1, 2, 17, 64, 300} {
			seed, n := seed, n
			for _, conn := range []bool{false, true} {
				conn := conn
				cases = append(cases, tc{
					name: fmt.Sprintf("gnp/n=%d/seed=%d/conn=%v", n, seed, conn),
					mat:  func() *graph.Graph { return GNP(n, 8.0/float64(n), seed, conn) },
					str:  func() *EdgeStream { return StreamGNP(n, 8.0/float64(n), seed, conn) },
				})
			}
		}
		for _, kc := range [][2]int{{1, 1}, {3, 5}, {6, 16}} {
			k, cs, seed := kc[0], kc[1], seed
			cases = append(cases, tc{
				name: fmt.Sprintf("communities/k=%d/size=%d/seed=%d", k, cs, seed),
				mat:  func() *graph.Graph { return Communities(k, cs, 0.4, 0.02, seed) },
				str:  func() *EdgeStream { return StreamCommunities(k, cs, 0.4, 0.02, seed) },
			})
		}
	}
	for _, rc := range [][2]int{{1, 1}, {1, 5}, {2, 2}, {3, 3}, {4, 9}, {12, 12}} {
		rows, cols := rc[0], rc[1]
		cases = append(cases, tc{
			name: fmt.Sprintf("grid/%dx%d", rows, cols),
			mat:  func() *graph.Graph { return Grid(rows, cols) },
			str:  func() *EdgeStream { return StreamGrid(rows, cols) },
		})
		cases = append(cases, tc{
			name: fmt.Sprintf("torus/%dx%d", rows, cols),
			mat:  func() *graph.Graph { return Torus(rows, cols) },
			str:  func() *EdgeStream { return StreamTorus(rows, cols) },
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { requireSameGraph(t, c.str(), c.mat()) })
	}
}

// requireSameGraph fails t unless the stream's counts, degrees and CSR
// equal the materialized graph's.
func requireSameGraph(t testing.TB, s *EdgeStream, want *graph.Graph) {
	t.Helper()
	if s.N() != want.N() || s.M() != want.M() {
		t.Fatalf("stream counts (n=%d, m=%d) != materialized (n=%d, m=%d)",
			s.N(), s.M(), want.N(), want.M())
	}
	got := s.Graph()
	wm, wh := graph.Fingerprint(want)
	gm, gh := graph.Fingerprint(got)
	if wm != gm || wh != gh {
		t.Fatalf("stream fingerprint (%d, %s) != materialized (%d, %s)", gm, gh, wm, wh)
	}
	for v := 0; v < want.N(); v++ {
		if s.Degree(v) != want.Degree(v) {
			t.Fatalf("vertex %d: stream degree %d != materialized %d", v, s.Degree(v), want.Degree(v))
		}
	}
}

// edgeProbs are the coin probabilities at and beyond the edges of [0, 1]:
// the smallest positive draw threshold, the largest below 1, every
// clamp, and NaN.
var edgeProbs = []float64{0, 0x1p-60, 1e-3, 0.5, 1 - 0x1p-53, 1, 1.5, -0.25, math.NaN(), math.Inf(1)}

// TestStreamMatchesMaterializedAtProbEdges checks the streamed GNP and
// Communities graphs against the Builder forms at every edgeProbs value
// (and every pair of them for Communities), where a coin test that is
// not exactly Float64() < p would part from the reference.
func TestStreamMatchesMaterializedAtProbEdges(t *testing.T) {
	for _, p := range edgeProbs {
		for _, conn := range []bool{false, true} {
			t.Run(fmt.Sprintf("gnp/p=%v/conn=%v", p, conn), func(t *testing.T) {
				requireSameGraph(t, StreamGNP(48, p, 5, conn), GNP(48, p, 5, conn))
			})
		}
	}
	for _, pIn := range edgeProbs {
		for _, pOut := range edgeProbs {
			t.Run(fmt.Sprintf("communities/pIn=%v/pOut=%v", pIn, pOut), func(t *testing.T) {
				requireSameGraph(t, StreamCommunities(3, 9, pIn, pOut, 11), Communities(3, 9, pIn, pOut, 11))
			})
		}
	}
}

// TestCoinThresholdIsFloat64Test checks the integer coin test against
// Float64() < p on the 53-bit draws where they could part: the ends of
// the range and the draws around p·2⁵³, for every edgeProbs value, the
// neighbours of 0, 0.5 and 1, negative zero and a subnormal p.
func TestCoinThresholdIsFloat64Test(t *testing.T) {
	const top = 1 << 53
	ps := append([]float64{0.3, 2.0 / 3, 0x1p-1074, math.Copysign(0, -1)}, edgeProbs...)
	for _, q := range []float64{0, 0.5, 1} {
		ps = append(ps, math.Nextafter(q, -1), math.Nextafter(q, 2))
	}
	for _, p := range ps {
		th := coinThreshold(p)
		xs := []uint64{0, 1, 2, top - 2, top - 1}
		if p > 0 && p < 1 {
			f := uint64(p * top)
			xs = append(xs, f-1, f, f+1, f+2)
		}
		for _, x := range xs {
			if x >= top {
				continue
			}
			if got, want := x < th, float64(x)/top < p; got != want {
				t.Errorf("p=%v (threshold %d), draw %d: integer test %v, Float64 test %v", p, th, x, got, want)
			}
		}
	}
}

// FuzzStreamGNPMatchesGNP compares StreamGNP against the Builder form
// for arbitrary p bits (NaN, infinities, subnormals, negative zero),
// seeds, connectivity and n <= 64.
func FuzzStreamGNPMatchesGNP(f *testing.F) {
	for i, p := range edgeProbs {
		f.Add(uint8(8*i), math.Float64bits(p), uint64(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, n8 uint8, pBits, seed uint64, conn bool) {
		n, p := int(n8%65), math.Float64frombits(pBits)
		requireSameGraph(t, StreamGNP(n, p, seed, conn), GNP(n, p, seed, conn))
	})
}

// TestStreamReplayable checks that Edges yields the identical sequence on
// repeated iteration and that early termination of one replay does not
// disturb the next.
func TestStreamReplayable(t *testing.T) {
	s := StreamGNP(200, 0.05, 123, true)
	var first [][2]int32
	for u, v := range s.Edges() {
		first = append(first, [2]int32{u, v})
	}
	if len(first) != s.M() {
		t.Fatalf("replay yielded %d edges, M() = %d", len(first), s.M())
	}
	// Partial replay, then a full one.
	stop := 0
	for range s.Edges() {
		stop++
		if stop == 3 {
			break
		}
	}
	i := 0
	for u, v := range s.Edges() {
		if e := first[i]; e[0] != u || e[1] != v {
			t.Fatalf("replay edge %d = (%d, %d), want (%d, %d)", i, u, v, e[0], e[1])
		}
		i++
	}
	if i != len(first) {
		t.Fatalf("second replay yielded %d edges, first yielded %d", i, len(first))
	}
}

// BenchmarkStreamGNP times the generation layer: StreamGNP plus its
// CSR, at the service's build shape (what one spannerd GNP job and its
// restart pay) and at the 500k-edge shape of the scale/gen bench rows.
// ns/pair divides by the n(n−1)/2 pairs the sweep decides.
func BenchmarkStreamGNP(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		p    float64
		seed uint64
	}{
		{"build-2048", 2048, 20.0 / 2047, 7},
		{"scale-500k", 8192, 2 * 500_000 / (8192.0 * 8191.0), 29},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			m := 0
			for i := 0; i < b.N; i++ {
				m = StreamGNP(c.n, c.p, c.seed, true).Graph().M()
			}
			pairs := float64(c.n) * float64(c.n-1) / 2
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*pairs), "ns/pair")
			b.ReportMetric(float64(m), "edges")
		})
	}
}
