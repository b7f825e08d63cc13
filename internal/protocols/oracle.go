package protocols

import (
	"slices"

	"nearspan/internal/graph"
)

// This file holds centralized counterparts of the distributed protocols.
// They compute the same outputs directly on the graph — same deterministic
// tie-breaking, no round machinery — and serve two purposes: oracles in
// the protocol tests, and the building blocks of the centralized
// reference implementation of the spanner construction (internal/core),
// whose output must be identical to the distributed one.

// CentralNearNeighbors is the phase-level simulation of Algorithm 1: it
// reproduces the distributed NearNeighbors protocol's outputs (known
// centers, distances, Via ports, popularity) exactly, without the round
// machinery.
//
// Phase p delivers announcements that traversed p edges. Each vertex
// selects up to deg+1 of the phase's heard centers (smallest IDs first,
// known or not; see the forward-budget finding on NearNeighbors) as the
// next phase's forwards, and stores first-heard centers up to deg stored
// entries. Both modes apply these rules through the same NNState.
func CentralNearNeighbors(g *graph.Graph, centers []int, deg int, delta int32) NNResult {
	nn, _ := CentralNearNeighborsRec(g, centers, deg, delta, nil)
	return nn
}

// CentralNearNeighborsRec is CentralNearNeighbors with optional forward-
// transcript recording: when rec is non-nil, every vertex's per-phase
// forward selections are recorded and the finished transcript returned
// (zero-value otherwise). The recorded segments are identical to those a
// distributed run with the same inputs records — the forward selections
// are bit-equal across modes, and the encoder is shared.
func CentralNearNeighborsRec(g *graph.Graph, centers []int, deg int, delta int32, rec *TranscriptRecorder) (NNResult, NNTranscript) {
	return centralNearNeighbors(g, centers, deg, delta, rec, nil)
}

// centralNearNeighbors is CentralNearNeighborsRec; onPhase, when non-nil,
// is shown each phase's receivers, the vertices the phase recomputes.
func centralNearNeighbors(g *graph.Graph, centers []int, deg int, delta int32, rec *TranscriptRecorder, onPhase func(p int32, receivers []int32)) (NNResult, NNTranscript) {
	n := g.N()
	st := make([]NNState, n)
	isCenter := make([]bool, n)
	for _, c := range centers {
		isCenter[c] = true
	}

	// A vertex's hearings change only when a neighbor's forward list
	// does, and a vertex that hears what it heard in the phase before
	// forwards the same list and stores nothing new: that phase stored
	// every center it heard or filled the storage quota. So a phase
	// recomputes only the neighbors of the vertices whose list changed in
	// the phase before, and costs O(their degrees + hearings), not O(n).
	// The rest keep their lists, which the recorder repeats. Phase 0's
	// lists are the centers' announcements, which every center's phase-1
	// selection replaces.
	heardIn := make([]int32, n)
	var receivers, changed []int32
	wake := func(u int32, p int32) {
		if heardIn[u] != p {
			heardIn[u] = p
			receivers = append(receivers, u)
		}
	}
	for _, c := range centers {
		st[c].fwd = append(st[c].fwd, int64(c))
		wake(int32(c), 1)
		for _, u := range g.Neighbors(c) {
			wake(u, 1)
		}
	}
	for p := int32(1); p <= delta && len(receivers) > 0; p++ {
		if onPhase != nil {
			onPhase(p, receivers)
		}
		// Each receiver pulls its neighbors' forward lists; the port
		// toward a neighbor is its position in the sorted adjacency.
		for _, u := range receivers {
			for port, v := range g.Neighbors(int(u)) {
				if len(st[v].fwd) > 0 {
					st[u].HearRun(st[v].fwd, int32(port), deg, int64(u))
				}
			}
		}
		changed = changed[:0]
		for _, u := range receivers {
			if fwd, moved := st[u].Finalize(p, deg, delta); moved {
				changed = append(changed, u)
				if rec != nil && p < delta {
					rec.Set(int(u), p, fwd)
				}
			}
		}
		receivers = receivers[:0]
		for _, v := range changed {
			for _, u := range g.Neighbors(int(v)) {
				wake(u, p+1)
			}
		}
	}
	var tr NNTranscript
	if rec != nil {
		tr = rec.Finish()
	}
	return NewNNResult(n, func(v int) ([]int64, []int32, []int32, bool) {
		keys, dist, ports := st[v].Known()
		return keys, dist, ports, isCenter[v] && len(keys) >= deg
	}), tr
}

// TracePath follows Via pointers from v toward center c using the
// NNResult routing state, returning the vertex sequence v, ..., c. It
// reports ok=false if the pointers do not lead to c (which the
// construction never encounters for its traced pairs; tested).
func TracePath(g *graph.Graph, nn NNResult, v int, c int64) (path []int, ok bool) {
	cur := v
	path = append(path, cur)
	for int64(cur) != c {
		port, exists := nn.Port(cur, c)
		if !exists || len(path) > g.N() {
			return path, false
		}
		cur = g.Neighbor(cur, port)
		path = append(path, cur)
	}
	return path, true
}

// CentralRulingSet runs the digit-competition ruling set centrally,
// reproducing the distributed protocol's output exactly: same digits,
// same window order, same kill radius q.
func CentralRulingSet(g *graph.Graph, members []int, q int32, c int, n int) []int {
	b := DigitBase(n, c)
	// Dense active flags over a sorted member list: the competition below
	// is order-independent (kills are a pure function of digits and
	// distances), and the ascending scan makes the output sorted for free.
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	active := make([]bool, g.N())
	for _, w := range sorted {
		active[w] = true
	}
	var firing []int
	for pos := c - 1; pos >= 0; pos-- {
		for value := b - 1; value >= 0; value-- {
			firing = firing[:0]
			for _, w := range sorted {
				if active[w] && digit(int64(w), pos, b) == value {
					firing = append(firing, w)
				}
			}
			if len(firing) == 0 {
				continue
			}
			// Kill active candidates with a smaller current digit within
			// distance q of any firing candidate.
			dist, _, _ := g.MultiBFS(firing, q)
			for _, w := range sorted {
				if active[w] && dist[w] <= q && digit(int64(w), pos, b) < value {
					active[w] = false
				}
			}
		}
	}
	out := make([]int, 0, len(sorted))
	for _, w := range sorted {
		if active[w] {
			out = append(out, w)
		}
	}
	return out
}

// VerifyRulingSet checks the two ruling-set guarantees and returns
// (separationOK, dominationOK). Separation: selected vertices pairwise at
// distance >= q+1. Domination: every member within domRadius of a
// selected vertex.
func VerifyRulingSet(g *graph.Graph, members, selected []int, q int32, domRadius int32) (sepOK, domOK bool) {
	sepOK = true
	sel := make(map[int]bool, len(selected))
	for _, s := range selected {
		sel[s] = true
	}
	for _, s := range selected {
		dist := g.BFSBounded(s, q)
		for v := 0; v < g.N(); v++ {
			if v != s && sel[v] && dist[v] <= q {
				sepOK = false
			}
		}
	}
	domOK = true
	if len(selected) > 0 {
		dist, _, _ := g.MultiBFS(selected, domRadius)
		for _, w := range members {
			if dist[w] > domRadius {
				domOK = false
			}
		}
	} else if len(members) > 0 {
		domOK = false
	}
	return sepOK, domOK
}
