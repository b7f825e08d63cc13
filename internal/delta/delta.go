// Package delta implements the edge-delta side of incremental spanner
// rebuilds: validated insert/delete batches, CSR graph patching, and the
// random batches of the churn workloads. It knows nothing about the
// construction: internal/core orchestrates rebuilds, and the
// near-neighbors replay that recomputes Algorithm 1's table only where a
// delta reaches is protocols.ReplayNearNeighbors.
package delta

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"nearspan/internal/graph"
)

// Edge is one undirected edge of a delta batch.
type Edge struct {
	U, V int32
}

// Batch is an edge delta: edges to insert and edges to delete, applied
// atomically to a graph. Normalize before use; Apply normalizes
// implicitly.
type Batch struct {
	Insert []Edge
	Delete []Edge
}

// Size returns the total number of operations in the batch.
func (b *Batch) Size() int { return len(b.Insert) + len(b.Delete) }

// Normalize validates the batch against an n-vertex graph and brings it
// to canonical form: every edge u < v, each list sorted ascending and
// deduplicated. It rejects self-loops, out-of-range endpoints, and edges
// present in both lists (an insert+delete of the same edge is ambiguous,
// not a no-op: the batch is applied atomically, not sequentially).
func (b *Batch) Normalize(n int) error {
	norm := func(list []Edge, what string) ([]Edge, error) {
		for i, e := range list {
			if e.U == e.V {
				return nil, fmt.Errorf("delta: %s self-loop on vertex %d", what, e.U)
			}
			if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
				return nil, fmt.Errorf("delta: %s edge {%d,%d} out of range [0,%d)", what, e.U, e.V, n)
			}
			if e.U > e.V {
				list[i] = Edge{U: e.V, V: e.U}
			}
		}
		slices.SortFunc(list, cmpEdge)
		return slices.Compact(list), nil
	}
	var err error
	if b.Insert, err = norm(b.Insert, "insert"); err != nil {
		return err
	}
	if b.Delete, err = norm(b.Delete, "delete"); err != nil {
		return err
	}
	for _, e := range b.Insert {
		if _, ok := slices.BinarySearchFunc(b.Delete, e, cmpEdge); ok {
			return fmt.Errorf("delta: edge {%d,%d} appears in both insert and delete", e.U, e.V)
		}
	}
	return nil
}

// Endpoints returns the sorted distinct endpoints touched by the batch —
// the seed set of the dirty frontier (a touched vertex's adjacency, and
// hence its port numbering and hearing stream, changed).
func (b *Batch) Endpoints() []int {
	out := make([]int, 0, 2*b.Size())
	for _, e := range b.Insert {
		out = append(out, int(e.U), int(e.V))
	}
	for _, e := range b.Delete {
		out = append(out, int(e.U), int(e.V))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func cmpEdge(a, c Edge) int {
	if a.U != c.U {
		return int(a.U) - int(c.U)
	}
	return int(a.V) - int(c.V)
}

// ErrConflict marks a well-formed batch that disagrees with the graph it
// claims to patch: it inserts an edge already present or deletes one
// that is not. Check and Apply wrap it; every other error they return is
// a malformed batch.
var ErrConflict = errors.New("delta: batch disagrees with the graph")

// Check normalizes b against g and verifies that it agrees with g. A
// delta that disagrees with the graph it claims to patch is a caller
// bug, not a merge: the error then wraps ErrConflict.
func Check(g *graph.Graph, b *Batch) error {
	if err := b.Normalize(g.N()); err != nil {
		return err
	}
	for _, e := range b.Insert {
		if g.HasEdge(int(e.U), int(e.V)) {
			return fmt.Errorf("%w: insert edge {%d,%d} already present", ErrConflict, e.U, e.V)
		}
	}
	for _, e := range b.Delete {
		if !g.HasEdge(int(e.U), int(e.V)) {
			return fmt.Errorf("%w: delete edge {%d,%d} not present", ErrConflict, e.U, e.V)
		}
	}
	return nil
}

// Apply checks b against g (see Check) and produces the patched graph:
// g's edge set minus b.Delete plus b.Insert, as a fresh CSR. g is not
// modified. The patched CSR is bit-identical to building the target
// edge set from scratch (both go through the same sorted-stream
// constructor), so fingerprints and port numberings agree.
func Apply(g *graph.Graph, b *Batch) (*graph.Graph, error) {
	if err := Check(g, b); err != nil {
		return nil, err
	}
	return graph.FromSortedEdgeSeq(g.N(), mergedEdges(g, b)), nil
}

// mergedEdges yields g's edges merged with the batch's sorted inserts,
// skipping its deletes, in ascending (u, v) order — the stream contract
// of graph.FromSortedEdgeSeq. The sequence is re-iterable.
func mergedEdges(g *graph.Graph, b *Batch) iter.Seq2[int32, int32] {
	return func(yield func(int32, int32) bool) {
		i, d := 0, 0
		alive := true
		g.Edges(func(u, v int) {
			if !alive {
				return
			}
			e := Edge{U: int32(u), V: int32(v)}
			for i < len(b.Insert) && cmpEdge(b.Insert[i], e) < 0 {
				if !yield(b.Insert[i].U, b.Insert[i].V) {
					alive = false
					return
				}
				i++
			}
			if d < len(b.Delete) && b.Delete[d] == e {
				d++
				return
			}
			if !yield(e.U, e.V) {
				alive = false
			}
		})
		if !alive {
			return
		}
		for ; i < len(b.Insert); i++ {
			if !yield(b.Insert[i].U, b.Insert[i].V) {
				return
			}
		}
	}
}
