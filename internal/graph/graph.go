// Package graph provides the unweighted undirected graph substrate used by
// every algorithm in this repository: an append-only edge builder, an
// immutable CSR (compressed sparse row) view for fast traversal, BFS-based
// exact distance computation, and structural queries (connectivity,
// diameter, degeneracy).
//
// Vertices are identified by integers 0..n-1, matching the paper's
// assumption that IDs lie in [n]. Graphs are simple: self-loops and
// parallel edges are rejected by the builder.
package graph

import (
	"fmt"
	"iter"
	"slices"
)

// Builder is a deterministic, append-only accumulator of undirected
// edges over vertices [0, n) that freezes into an immutable Graph. It
// builds the inputs (generators, ReadEdgeList) and every spanner H,
// which the construction grows only by appending edges, some of them
// already present. The zero value is unusable; construct with
// NewBuilder. Not safe for concurrent use.
//
// Duplicate detection is sort-based rather than hash-based. Edges are
// normalized to u < v and bucketed by u, and each bucket is one slice
// laid out by the logarithmic method in blocks of bucketBlock entries:
// with q = len/bucketBlock, the front holds a sorted run of
// bucketBlock<<i entries for each set bit i of q, largest first, and the
// last len%bucketBlock entries are an unsorted tail. The layout is a
// function of the length alone, so a bucket costs one slice header and
// no run directory. Runs are mutually duplicate-free, so membership is
// a scan of the tail plus one binary search per run; a full tail becomes
// a run and equal runs merge like a binary counter's carries, for
// O(1) amortized moves per edge. Iteration is (u, v) ascending with no
// global sort: buckets are visited in order and each one compacts to a
// single sorted run, which is itself a valid layout.
//
// Buckets are allocated lazily, up to the largest smaller endpoint seen,
// so a vertex count alone costs nothing per vertex until Build.
type Builder struct {
	n       int
	m       int
	buckets [][]int32 // buckets[u]: the larger endpoints of u's edges
	tmp     []int32   // merge scratch
}

// bucketBlock is the tail length at which a bucket's unsorted tail turns
// into a sorted run. Spanner buckets hold O(β) edges per vertex, so most
// of them never grow a second run.
const bucketBlock = 16

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// AddEdge inserts the undirected edge {u, v}. It returns an error if the
// edge is a self-loop, out of range, or already present.
func (b *Builder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if !b.insert(min(u, v), max(u, v)) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	return nil
}

// Add inserts the undirected edge {u, v}, reporting whether it was new.
// It is the trusted path for adjacency-derived pairs: a self-loop or an
// out-of-range endpoint is a construction bug, not an input error, and
// panics.
func (b *Builder) Add(u, v int) bool {
	u, v = min(u, v), max(u, v)
	if u == v || u < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: invalid edge {%d,%d} over n=%d", u, v, b.n))
	}
	return b.insert(u, v)
}

// HasEdge reports whether {u, v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	u, v = min(u, v), max(u, v)
	if u == v || u < 0 || u >= len(b.buckets) || v >= b.n {
		return false
	}
	return bucketHas(b.buckets[u], int32(v))
}

// insert adds the valid edge {u, v} with u < v unless it is present.
func (b *Builder) insert(u, v int) bool {
	if u >= len(b.buckets) {
		if u >= cap(b.buckets) {
			// Double, but never past n: a smaller endpoint creeping
			// upward would otherwise pay append's 1.25× steps.
			grown := make([][]int32, u+1, min(b.n, max(u+1, 2*cap(b.buckets))))
			copy(grown, b.buckets)
			b.buckets = grown
		}
		b.buckets = b.buckets[:u+1]
	}
	s, w := b.buckets[u], int32(v)
	if bucketHas(s, w) {
		return false
	}
	s = append(s, w)
	if len(s)%bucketBlock == 0 {
		// The full tail becomes a run, and runs of equal size merge as
		// a binary counter's carries propagate.
		slices.Sort(s[len(s)-bucketBlock:])
		for q, size := len(s)/bucketBlock, bucketBlock; q%2 == 0; q, size = q/2, 2*size {
			b.mergeRuns(s[len(s)-2*size:], size)
		}
	}
	b.buckets[u] = s
	b.m++
	return true
}

// bucketHas reports whether w is in bucket s: a scan of the tail, then
// one binary search per run, smallest run first.
func bucketHas(s []int32, w int32) bool {
	hi := len(s) - len(s)%bucketBlock
	if slices.Contains(s[hi:], w) {
		return true
	}
	for q, size := hi/bucketBlock, bucketBlock; q > 0; q, size = q/2, 2*size {
		if q%2 == 1 {
			if _, ok := slices.BinarySearch(s[hi-size:hi], w); ok {
				return true
			}
			hi -= size
		}
	}
	return false
}

// mergeRuns merges the sorted, mutually duplicate-free runs seg[:mid]
// and seg[mid:] in place. The first run is copied to the scratch
// buffer; the write cursor then never passes the second run's read
// cursor, and whatever is left of the second run is already in place.
func (b *Builder) mergeRuns(seg []int32, mid int) {
	a := append(b.tmp[:0], seg[:mid]...)
	b.tmp = a
	i, j, k := 0, mid, 0
	for i < len(a) && j < len(seg) {
		if a[i] < seg[j] {
			seg[k] = a[i]
			i++
		} else {
			seg[k] = seg[j]
			j++
		}
		k++
	}
	copy(seg[k:], a[i:])
}

// compact merges every bucket into one sorted run: the tail is sorted,
// then the runs merge into it from the smallest up. Add keeps working
// afterwards.
func (b *Builder) compact() {
	for _, s := range b.buckets {
		lo := len(s) - len(s)%bucketBlock
		slices.Sort(s[lo:])
		for q, size := lo/bucketBlock, bucketBlock; q > 0; q, size = q/2, 2*size {
			if q%2 == 1 {
				lo -= size
				b.mergeRuns(s[lo:], size)
			}
		}
	}
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return b.m }

// All yields every edge as (u, v) with u < v, ascending by u then v —
// the canonical order, produced structurally rather than by sorting.
// An Add after the All call invalidates the sequence; call All again to
// observe the addition.
func (b *Builder) All() iter.Seq2[int32, int32] {
	b.compact()
	return func(yield func(u, v int32) bool) {
		for u, s := range b.buckets {
			for _, v := range s {
				if !yield(int32(u), v) {
					return
				}
			}
		}
	}
}

// Build freezes the builder into an immutable Graph. Every adjacency
// list fills already sorted from the canonical edge order, so there is
// no per-vertex sort. The builder remains usable afterwards (Build
// copies).
func (b *Builder) Build() *Graph {
	return FromSortedEdgeSeq(b.n, b.All())
}

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	n      int
	m      int
	offs   []int32 // len n+1; adj[offs[v]:offs[v+1]] are v's neighbors
	adj    []int32 // sorted within each vertex's slice
	degMax int
}

// FromSortedEdgeSeq builds a CSR graph from a re-iterable stream of
// deduplicated edges, each normalized u < v and yielded in ascending
// (u, v) order: one pass counts degrees, and FromDegreeEdgeSeq replays
// the stream to fill the arrays. Because edges arrive sorted by the
// smaller endpoint, each vertex w receives first its smaller neighbors
// (from edges {a, w} with a < w, in ascending a) and then its larger
// ones (from edges {w, v}, in ascending v), so every adjacency list
// fills already sorted.
//
// The caller guarantees order, dedup, and range validity; violations
// corrupt the adjacency order rather than erroring. A stream that
// yields different edges on its two passes panics.
func FromSortedEdgeSeq(n int, seq iter.Seq2[int32, int32]) *Graph {
	deg := make([]int32, n)
	for u, v := range seq {
		deg[u]++
		deg[v]++
	}
	return FromDegreeEdgeSeq(deg, seq)
}

// FromDegreeEdgeSeq builds a CSR graph from a single pass over a sorted
// deduplicated edge stream whose per-vertex degrees are already known.
// Streaming generators compute exact degrees during their one
// structural sweep, so the CSR arrays are allocated once, at exactly
// the right size, and the stream is replayed exactly once to fill them.
// The caller guarantees the stream contract of FromSortedEdgeSeq
// (normalized u < v, ascending, in-range, duplicate-free) and that deg
// matches the stream; a degree mismatch is detected and panics rather
// than returning a corrupt graph.
func FromDegreeEdgeSeq(deg []int32, seq iter.Seq2[int32, int32]) *Graph {
	n := len(deg)
	// offs[v+1] starts at v's first slot and is v's fill cursor, so a
	// complete fill leaves it at v's end: the finished CSR offsets.
	offs := make([]int32, n+1)
	var total int32
	for v, d := range deg {
		offs[v+1] = total
		total += d
	}
	adj := make([]int32, total)
	m := 0
	for u, v := range seq {
		adj[offs[u+1]] = v
		offs[u+1]++
		adj[offs[v+1]] = u
		offs[v+1]++
		m++
	}
	degMax := 0
	for v, d := range deg {
		if got := offs[v+1] - offs[v]; got != d {
			panic(fmt.Sprintf("graph: FromDegreeEdgeSeq degree mismatch at vertex %d: declared %d, stream filled %d",
				v, d, got))
		}
		degMax = max(degMax, int(d))
	}
	return &Graph{n: n, m: m, offs: offs, adj: adj, degMax: degMax}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.offs[v+1] - g.offs[v])
}

// MaxDegree returns the maximum degree over all vertices.
func (g *Graph) MaxDegree() int { return g.degMax }

// Neighbors returns v's neighbor slice, sorted ascending. The caller must
// not modify it; copy first if mutation is needed (see the style guide's
// "copy slices at boundaries" — this accessor is documented read-only and
// is on every hot path, so it intentionally exposes the backing array).
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offs[v]:g.offs[v+1]]
}

// Neighbor returns v's port-th neighbor (ports index the sorted adjacency
// list; this is the "port numbering" used by the CONGEST simulator).
func (g *Graph) Neighbor(v, port int) int {
	return int(g.adj[int(g.offs[v])+port])
}

// AdjAt returns the i-th entry of the flat adjacency array, where i is a
// global directed-edge index: entry Offset(v)+p is Neighbor(v, p). The
// CONGEST simulator's slot layout is exactly this indexing, so exposing
// the flat array lets it derive a slot's destination vertex without a
// per-slot table of its own (8 bytes per directed edge it no longer
// retains at scale).
func (g *Graph) AdjAt(i int) int32 { return g.adj[i] }

// Offset returns the index into the flat adjacency array where v's
// neighbors begin; Offset(n) is the array length (2m). See AdjAt.
func (g *Graph) Offset(v int) int32 { return g.offs[v] }

// PortOf returns the port p such that Neighbor(v, p) == u, or -1 if u is
// not adjacent to v.
func (g *Graph) PortOf(v, u int) int {
	s := g.Neighbors(v)
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s[mid]) < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && int(s[lo]) == u {
		return lo
	}
	return -1
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	return g.PortOf(u, v) >= 0
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// EdgeList returns all edges as (u, v) pairs with u < v, in vertex order.
func (g *Graph) EdgeList() [][2]int32 {
	out := make([][2]int32, 0, g.m)
	g.Edges(func(u, v int) { out = append(out, [2]int32{int32(u), int32(v)}) })
	return out
}

// Subgraph reports whether h's edge set is a subset of g's and they have
// the same vertex count.
func Subgraph(h, g *Graph) bool {
	if h.N() != g.N() {
		return false
	}
	ok := true
	h.Edges(func(u, v int) {
		if !g.HasEdge(u, v) {
			ok = false
		}
	})
	return ok
}
