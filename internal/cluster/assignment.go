package cluster

// Assignment is a dense vertex set with O(1) clear: a slice of
// generation stamps. It holds the per-phase bookkeeping (superclustered
// centers, per-iteration seen-sets) in one flat slice that is never
// reallocated across phases.
//
// The zero value is unusable; construct with NewAssignment.
type Assignment struct {
	gen []uint32
	cur uint32
	n   int
}

// NewAssignment returns an empty set over vertices [0, n).
func NewAssignment(n int) *Assignment {
	if n < 0 {
		n = 0
	}
	return &Assignment{gen: make([]uint32, n), cur: 1}
}

// Reset clears the set in O(1) by bumping the generation.
func (a *Assignment) Reset() {
	a.cur++
	a.n = 0
	if a.cur == 0 { // generation wrap: restamp so stale entries cannot alias
		clear(a.gen)
		a.cur = 1
	}
}

// Set adds vertex v.
func (a *Assignment) Set(v int) {
	if a.gen[v] != a.cur {
		a.gen[v] = a.cur
		a.n++
	}
}

// Has reports whether v is in the set.
func (a *Assignment) Has(v int) bool { return a.gen[v] == a.cur }

// Len returns the number of vertices in the set.
func (a *Assignment) Len() int { return a.n }
