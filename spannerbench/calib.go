package main

import (
	"slices"
	"time"
)

// A shared virtual machine can change speed by up to 2× from one minute
// to the next (measured on a 2-CPU VM, with CPU time tracking wall time,
// so not descheduling). Reported times are therefore scaled to a nominal
// machine: a fixed reference kernel that uses none of the program's code
// is timed throughout the run, and every time is multiplied by
// refNominal / (median kernel time). The raw figures are printed beside
// the scaled ones.

// refNominal is the reference kernel's time on the nominal machine.
const refNominal = time.Millisecond

const (
	refVertices = 1 << 15
	refDegree   = 8
	refRepeats  = 8
)

// ruler is the reference kernel: breadth-first search over a fixed
// random graph, a mix of integer work and cache-missing loads like the
// program's own.
type ruler struct {
	offs    []int32
	adj     []int32
	dist    []int32
	queue   []int32
	samples []float64 // kernel times, µs
}

func newRuler() *ruler {
	r := &ruler{
		offs:  make([]int32, refVertices+1),
		adj:   make([]int32, 0, refVertices*refDegree),
		dist:  make([]int32, refVertices),
		queue: make([]int32, 0, refVertices),
	}
	x := uint64(1)
	for v := range refVertices {
		for range refDegree {
			x = splitmix(x)
			r.adj = append(r.adj, int32(x%refVertices))
		}
		r.offs[v+1] = int32(len(r.adj))
	}
	return r
}

// bfs runs one search from src and returns the number of vertices
// reached, so the work cannot be optimized away.
func (r *ruler) bfs(src int32) int {
	for i := range r.dist {
		r.dist[i] = -1
	}
	q := append(r.queue[:0], src)
	r.dist[src] = 0
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, w := range r.adj[r.offs[u]:r.offs[u+1]] {
			if r.dist[w] < 0 {
				r.dist[w] = r.dist[u] + 1
				q = append(q, w)
			}
		}
	}
	r.queue = q
	return len(q)
}

// measure times refRepeats searches and records each.
func (r *ruler) measure() {
	for i := range refRepeats {
		start := time.Now()
		if r.bfs(int32(i*4099%refVertices)) == 0 {
			panic("reference kernel reached nothing")
		}
		r.samples = append(r.samples, us(time.Since(start)))
	}
}

// factor is refNominal over the median kernel time.
func (r *ruler) factor() float64 {
	if len(r.samples) == 0 {
		return 1
	}
	s := slices.Clone(r.samples)
	slices.Sort(s)
	return us(refNominal) / s[len(s)/2]
}
