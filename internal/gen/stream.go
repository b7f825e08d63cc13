package gen

import (
	"iter"
	"math"

	"nearspan/internal/graph"
	"nearspan/internal/rng"
)

// EdgeStream is a generated graph whose edges come as a replayable
// sorted stream: exact vertex count, edge count, and per-vertex degrees,
// plus an Edges sequence that yields every edge normalized u < v in
// ascending (u, v) order, identically on every replay. Graph() feeds the
// stream straight into the CSR constructor, which allocates the offsets
// and adjacency arrays once — no builder, no per-vertex sort. Dedupe is
// structural: each Stream generator arranges its backbone (spanning-tree
// parents, bridges, lattice neighbors) so that every edge has exactly
// one emission point in its sweep.
//
// The random generators (StreamGNP, StreamCommunities) draw every pair
// once, in the constructor, and keep each edge's larger endpoint in
// ascending row order: 4 B per edge plus n+1 row offsets, which every
// replay reads. The lattices (StreamGrid, StreamTorus) draw nothing and
// keep no buffer: each replay recomputes their edges in closed form.
//
// Stream generators are bit-identical to their materialized
// counterparts (property-tested across kinds, seeds, sizes, and the
// edges of p): they consume the shared RNG in exactly the same order and
// decide each pair exactly as Float64() < p does, so
// StreamGNP(...).Graph() and GNP(...) fingerprint equal.
type EdgeStream struct {
	n, m int
	deg  []int32
	seq  iter.Seq2[int32, int32]
}

// N returns the number of vertices.
func (s *EdgeStream) N() int { return s.n }

// M returns the number of edges.
func (s *EdgeStream) M() int { return s.m }

// Degree returns the degree of v.
func (s *EdgeStream) Degree(v int) int { return int(s.deg[v]) }

// Edges returns the replayable sorted edge sequence.
func (s *EdgeStream) Edges() iter.Seq2[int32, int32] { return s.seq }

// Graph materializes the CSR form in a single replay of the stream.
func (s *EdgeStream) Graph() *graph.Graph {
	return graph.FromDegreeEdgeSeq(s.deg, s.seq)
}

// newEdgeStream runs the counting replay of a closed-form sequence once
// to fix M and the degrees.
func newEdgeStream(n int, seq iter.Seq2[int32, int32]) *EdgeStream {
	s := &EdgeStream{n: n, deg: make([]int32, n), seq: seq}
	for u, v := range seq {
		s.deg[u]++
		s.deg[v]++
		s.m++
	}
	return s
}

// coinThreshold returns the t for which r.Uint64()>>11 < t holds exactly
// when r.Float64() < p does. Float64 is x/2⁵³ for the 53-bit draw x, so
// the test is x < p·2⁵³; scaling by 2⁵³ is exact, and for an integer x,
// x < y exactly when x < ⌈y⌉. No draw passes p <= 0 or NaN, and every
// draw passes p >= 1.
func coinThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// coinProb is the success probability of a coinThreshold(p) draw.
func coinProb(t uint64) float64 { return float64(t) / (1 << 53) }

// sweep collects a random generator's edges as its pair sweep emits
// them: the degrees, and each edge's larger endpoint in ascending row
// order, row u's being hi[off[u]:off[u+1]].
type sweep struct {
	deg, off, hi []int32
}

// newSweep sizes the endpoint buffer for mean expected edges plus four
// standard deviations, so the sweep's appends almost never regrow it.
func newSweep(n int, mean float64) *sweep {
	return &sweep{
		deg: make([]int32, n),
		off: make([]int32, n+1),
		hi:  make([]int32, 0, int(mean+4*math.Sqrt(mean))),
	}
}

func (s *sweep) add(u, v int) {
	s.deg[u]++
	s.deg[v]++
	s.hi = append(s.hi, int32(v))
}

// endRow closes row u once its pairs are swept.
func (s *sweep) endRow(u int) { s.off[u+1] = int32(len(s.hi)) }

// stream returns the finished sweep as an EdgeStream replaying the
// buffer.
func (s *sweep) stream() *EdgeStream {
	off, hi := s.off, s.hi
	seq := func(yield func(int32, int32) bool) {
		for u := 0; u+1 < len(off); u++ {
			for _, v := range hi[off[u]:off[u+1]] {
				if !yield(int32(u), v) {
					return
				}
			}
		}
	}
	return &EdgeStream{n: len(s.deg), m: len(hi), deg: s.deg, seq: seq}
}

// StreamGNP is the streaming form of GNP: the identical G(n, p) graph
// (same seed, same RNG consumption order) without a builder.
// Spanning-tree parents are drawn first, exactly as GNP draws them; the
// pair sweep then emits each tree edge at its lexicographic (parent,
// child) position without consuming randomness — the same
// backbone-parent dedupe GNP uses to skip the builder probe — and draws
// one coin per remaining pair, emitting it on success. Every edge
// therefore has exactly one emission point and the stream is ascending
// by construction. The sweep runs once, here.
func StreamGNP(n int, p float64, seed uint64, ensureConnected bool) *EdgeStream {
	r := rng.New(seed)
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = -1
	}
	tree := 0
	if ensureConnected {
		for v := 1; v < n; v++ {
			parent[v] = int32(r.Intn(v))
		}
		tree = max(n-1, 0)
	}
	t := coinThreshold(p)
	s := newSweep(n, float64(tree)+coinProb(t)*float64(n)*float64(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if int(parent[v]) == u || r.Uint64()>>11 < t {
				s.add(u, v)
			}
		}
		s.endRow(u)
	}
	return s.stream()
}

// StreamCommunities is the streaming form of Communities, bit-identical
// for the same seed. The connectivity backbone (in-community parents and
// consecutive-anchor bridges) is fixed before the sweep; the sweep emits
// backbone edges at their lexicographic positions without consuming
// randomness and draws per pair otherwise, exactly as Communities does.
// A row's pairs inside u's community come first and can only hit a
// parent; the pairs past it draw against pOut and can only hit u's
// bridge.
func StreamCommunities(k, commSize int, pIn, pOut float64, seed uint64) *EdgeStream {
	n := k * commSize
	r := rng.New(seed)
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = -1
	}
	for v := 0; v < n; v++ {
		if v%commSize != 0 {
			base := (v / commSize) * commSize
			parent[v] = int32(base + r.Intn(v%commSize))
		}
	}
	tIn, tOut := coinThreshold(pIn), coinThreshold(pOut)
	inPairs := float64(k) * float64(commSize) * float64(commSize-1) / 2
	outPairs := float64(n)*float64(n-1)/2 - inPairs
	s := newSweep(n, float64(max(n-1, 0))+coinProb(tIn)*inPairs+coinProb(tOut)*outPairs)
	for u := 0; u < n; u++ {
		end := (u/commSize + 1) * commSize
		bridge := -1
		if u%commSize == 0 {
			bridge = end
		}
		for v := u + 1; v < end; v++ {
			if int(parent[v]) == u || r.Uint64()>>11 < tIn {
				s.add(u, v)
			}
		}
		for v := end; v < n; v++ {
			if v == bridge || r.Uint64()>>11 < tOut {
				s.add(u, v)
			}
		}
		s.endRow(u)
	}
	return s.stream()
}

// StreamGrid is the streaming form of Grid: each vertex emits its right
// and down neighbors, which is ascending order by construction.
func StreamGrid(rows, cols int) *EdgeStream {
	n := rows * cols
	seq := func(yield func(int32, int32) bool) {
		for u := 0; u < n; u++ {
			if u%cols+1 < cols && !yield(int32(u), int32(u+1)) {
				return
			}
			if u+cols < n && !yield(int32(u), int32(u+cols)) {
				return
			}
		}
	}
	return newEdgeStream(n, seq)
}

// StreamTorus is the streaming form of Torus (rows, cols >= 3; smaller
// dimensions fall back to StreamGrid, as Torus falls back to Grid). The
// four lattice neighbors of u that are larger than u — right (unless u
// is in the last column), the row's wraparound partner (when u is in
// column 0), down (unless u is in the last row), and the column's
// wraparound partner (when u is in row 0) — are emitted in that order,
// which is ascending because rows, cols >= 3.
func StreamTorus(rows, cols int) *EdgeStream {
	if rows < 3 || cols < 3 {
		return StreamGrid(rows, cols)
	}
	n := rows * cols
	seq := func(yield func(int32, int32) bool) {
		for u := 0; u < n; u++ {
			c := u % cols
			if c+1 < cols && !yield(int32(u), int32(u+1)) {
				return
			}
			if c == 0 && !yield(int32(u), int32(u+cols-1)) {
				return
			}
			if u+cols < n && !yield(int32(u), int32(u+cols)) {
				return
			}
			if u < cols && !yield(int32(u), int32(u+(rows-1)*cols)) {
				return
			}
		}
	}
	return newEdgeStream(n, seq)
}
