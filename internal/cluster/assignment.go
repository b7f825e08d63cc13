package cluster

// Assignment is a dense vertex-keyed map with O(1) clear: an int32 value
// slice stamped by a generation counter. It holds the per-phase cluster
// bookkeeping (superclustering assignments for Merge, spanned sets,
// per-iteration seen-sets) in two flat slices that are never
// reallocated across phases.
//
// The zero value is unusable; construct with NewAssignment.
type Assignment struct {
	val []int32
	gen []uint32
	cur uint32
	n   int
}

// NewAssignment returns an empty assignment over vertices [0, n).
func NewAssignment(n int) *Assignment {
	if n < 0 {
		n = 0
	}
	return &Assignment{val: make([]int32, n), gen: make([]uint32, n), cur: 1}
}

// Reset clears the assignment in O(1) by bumping the generation.
func (a *Assignment) Reset() {
	a.cur++
	a.n = 0
	if a.cur == 0 { // generation wrap: restamp so stale entries cannot alias
		clear(a.gen)
		a.cur = 1
	}
}

// Set assigns value x to vertex v.
func (a *Assignment) Set(v int, x int32) {
	if a.gen[v] != a.cur {
		a.gen[v] = a.cur
		a.n++
	}
	a.val[v] = x
}

// Get returns v's assigned value and whether v is assigned.
func (a *Assignment) Get(v int) (int32, bool) {
	if a.gen[v] != a.cur {
		return 0, false
	}
	return a.val[v], true
}

// Has reports whether v is assigned.
func (a *Assignment) Has(v int) bool { return a.gen[v] == a.cur }

// Len returns the number of assigned vertices.
func (a *Assignment) Len() int { return a.n }

// Cap returns the vertex-universe size.
func (a *Assignment) Cap() int { return len(a.val) }
